package rel

import (
	"hash/maphash"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
)

// This file implements value interning: a dictionary assigning each
// distinct Value a dense uint32 ID. Interned IDs replace the injective
// string encodings of Tuple.Key on the hot paths (relation
// deduplication, hash joins, hash division, set-join grouping): an
// integer probe is allocation-free and considerably cheaper than
// building a key string per tuple; Tuple.Key remains for code that
// needs an injective encoding without a shared dictionary.
//
// The dictionary is its values, one 64-bit word each in pages of
// words, a kind bitmap beside them, its strings' bytes in chunks, and
// one flat open-addressed index over the words, for both kinds of
// value. An integer's word is its 64 bits. A string's word is the
// index of the chunk holding its bytes (high 32 bits), its offset in
// that chunk (16 bits) and its length (low 16 bits); a string longer
// than a quarter of maxChunk, and the empty string, is a chunk of its
// own, marked by the length wholeChunk. Bit id%64 of kinds[id/64] says
// that value id is a string. Value rebuilds the rel.Value from the
// word, a string as a substring of its chunk, and allocates nothing.
// Neither the pages nor the bitmap hold a pointer, so the collector
// never scans them; the chunks are one string header per up to 64 KB
// of bytes.
//
// An index slot is 0 when empty, otherwise the value's 32-bit hash in
// the high half and 1 + its ID in the low half; the bucket is the hash
// masked to the table size, collisions probe linearly, and the table
// is kept at most half full. A probe compares the stored hash before
// it follows the ID to the word, then confirms equality on the kind
// and the word (an integer) or the chunk's bytes (a string), never on
// the hash alone. Growth doubles the table and re-places the stored
// slots: no value is hashed again. Words never move: the word of ID id
// is pages[id>>pageBits][id&pageMask], every page but the last is
// full, and growth appends a page without copying any. Only the first
// page grows in place, doubling up to a page, so that a small
// dictionary (a query's tail, a standalone relation's) does not cost a
// page.
//
// A dictionary may sit on a base (newInternerOver): a store's
// dictionary, which a query result keeps, the main dictionary beside
// its private delta as in SAP HANA's column store (Krüger et al.,
// PVLDB 5(1), 2011). The IDs below the base's length at basing are the
// base's; new values go into the dictionary's own tail, from that
// length on. The based dictionary shares the base's pages, kind bitmap
// and chunk headers as slices capped at that length, so Value reads a
// base ID and a tail ID alike; a write would either append past a cap,
// which copies, or set a bit in the bitmap's last word, so the first
// tail value copies the bitmap. The base is never written through it.
// Its index holds the tail's values only; a lookup probes the base's
// index first, one hop, since bases do not chain.

// Interner assigns dense uint32 IDs to values. IDs are allocated in
// first-intern order starting at 0, so an Interner also acts as an
// ordered dictionary of the distinct values it has seen. The zero
// Interner is an empty dictionary. Both hashes are seeded per process,
// as the runtime seeds the Go maps this table replaced, so no input
// can drive its values into one probe run; IDs depend on the order of
// first interning only, so nothing it returns depends on the seed.
// Every string it keeps is copied into a chunk the dictionary owns,
// whether it came through Intern or the text loader: one handed out by
// Value may pin up to 64 KB.
//
// An Interner is not safe for concurrent mutation. Concurrent readers
// (ID, Value, Len) are safe once interning is complete, which is the
// access pattern of the worker pool's callers (exec.Run): intern
// sequentially during the build phase, probe read-only from workers.
// A based dictionary reads its base, so it is read under the base's
// rule: no goroutine writes the base while another reads the based
// one, as for any read of the base.
type Interner struct {
	slots  []uint64   // the index of its own values: empty or a power of two, at least twice as many
	pages  [][]uint64 // the values' words in ID order
	kinds  []uint64   // the kind bitmap: a set bit is a string
	chunks []string   // the string storage a string's word indexes
	// chunk is the storage of chunks[open] while keep fills it, and
	// zero when no chunk is open (a new, based or cloned dictionary).
	chunk strings.Builder
	open  uint32
	// base is the dictionary this one sits on, nil for none; the IDs
	// below based are base's. over is the dictionary it was made over,
	// base or one based on base whose tail it copied, and overLen that
	// one's length then: up to there the two agree on every ID.
	base    *Interner
	based   uint32
	over    *Interner
	overLen uint32
}

// A page holds pageSize words (8 KB); the first starts at firstPage.
const (
	pageBits  = 10
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	firstPage = 8
)

// A string's word: chunk<<32 | offset<<16 | length, or
// chunk<<32 | wholeChunk for a string that is its chunk.
const (
	lenMask    = 1<<16 - 1
	wholeChunk = lenMask
)

// The per-process seeds: strings hash through the runtime's string
// hash (hash/maphash), integers through hashFinish keyed by hashKey.
var hashSeed, hashKey = maphash.MakeSeed(), rand.Uint64()

// NewInterner returns an empty dictionary.
func NewInterner() *Interner { return new(Interner) }

// newInternerOver returns a dictionary based on base as base stands:
// its IDs below base.Len() are base's, read through slices of base's
// storage capped there, and its tail is empty. Over a based dictionary
// it sits on that one's base and interns its tail anew, in ID order,
// so every ID is kept and bases never chain.
func newInternerOver(base *Interner) *Interner {
	root, n := base, uint32(base.Len())
	if base.base != nil {
		root, n = base.base, base.based
	}
	words := (n + 63) / 64
	in := &Interner{base: root, based: n, over: base, overLen: uint32(base.Len()), kinds: root.kinds[:words:words]}
	if n > 0 {
		last := (n - 1) >> pageBits
		in.pages = append(slices.Clip(root.pages[:last]), root.pages[last][:n-last<<pageBits:n-last<<pageBits])
		in.chunks = slices.Clip(root.chunks)
	}
	for id := n; id < in.overLen; id++ {
		in.Intern(base.Value(id))
	}
	return in
}

// hashOf returns the hash of v; a slot keeps its high half.
func hashOf(v Value) uint64 {
	if v.kind == KindInt {
		return hashFinish((uint64(v.i) ^ hashKey) * hashPrime)
	}
	return maphash.String(hashSeed, v.s)
}

// word returns the word of value id, isString its kind, and str the
// string a string's word stands for.
func (in *Interner) word(id uint32) uint64   { return in.pages[id>>pageBits][id&pageMask] }
func (in *Interner) isString(id uint32) bool { return in.kinds[id>>6]>>(id&63)&1 != 0 }
func (in *Interner) str(w uint64) string {
	c := in.chunks[w>>32]
	if w&lenMask != wholeChunk {
		c = c[w>>16&lenMask:][:w&lenMask]
	}
	return c
}

// find walks the probe run of hash h, which ends at an empty slot, and
// returns the ID of v when the run holds it, after asking the base. It
// writes nothing. (The len test is for the dictionary that has no
// table yet.)
func (in *Interner) find(h uint64, v Value) (uint32, bool) {
	if in.base != nil {
		if id, ok := in.base.find(h, v); ok && id < in.based {
			return id, true
		}
	}
	mask := uint64(len(in.slots) - 1)
	for i := h >> 32 & mask; len(in.slots) > 0 && in.slots[i] != 0; i = (i + 1) & mask {
		if w := in.slots[i]; w>>32 == h>>32 {
			id := uint32(w) - 1
			if v.kind == KindInt && !in.isString(id) && in.word(id) == uint64(v.i) ||
				v.kind == KindString && in.isString(id) && in.str(in.word(id)) == v.s {
				return id, true
			}
		}
	}
	return 0, false
}

// Intern returns the ID of v, assigning the next free ID when v has not
// been seen before.
func (in *Interner) Intern(v Value) uint32 {
	h := hashOf(v)
	if id, ok := in.find(h, v); ok {
		return id
	}
	if v.kind == KindInt {
		return in.insert(h, uint64(v.i), false)
	}
	return in.insert(h, in.keepString(v.s), true)
}

// insert appends the word of a value that is new to the dictionary and
// returns its ID. The word goes at the end of the last page, or of a
// new one when that is full: no stored word is copied, so a bulk load
// allocates the words it keeps and no earlier copies of them. Only a
// first page short of pageSize doubles, and so does a based
// dictionary's last page, copied from the base. A half-full index
// doubles too, and its slots are re-placed as they stand.
func (in *Interner) insert(h, w uint64, isString bool) uint32 {
	n := in.Len()
	if n >= maxValues {
		panic(errDictionaryFull)
	}
	id := uint32(n)
	if id == in.based && in.base != nil {
		// The first tail value: the bitmap's last word may be the base's,
		// with bits the base set after basing.
		in.kinds = slices.Clone(in.kinds)
		if id&63 != 0 {
			in.kinds[id>>6] &= 1<<(id&63) - 1
		}
	}
	last := len(in.pages) - 1
	switch {
	case last < 0:
		in.pages = append(in.pages, make([]uint64, 0, firstPage))
		last = 0
	case len(in.pages[last]) == pageSize:
		in.pages = append(in.pages, make([]uint64, 0, pageSize))
		last++
	case len(in.pages[last]) == cap(in.pages[last]):
		p := in.pages[last]
		in.pages[last] = append(make([]uint64, 0, min(2*cap(p), pageSize)), p...)
	}
	in.pages[last] = append(in.pages[last], w)
	if id&63 == 0 {
		in.kinds = append(in.kinds, 0)
	}
	if isString {
		in.kinds[id>>6] |= 1 << (id & 63)
	}
	if old := in.slots; 2*int(id+1-in.based) > len(old) {
		in.slots = make([]uint64, max(2*len(old), 8))
		for _, s := range old {
			if s != 0 {
				in.place(s)
			}
		}
	}
	in.place(h>>32<<32 | uint64(id+1))
	return id
}

// maxValues is the most values one dictionary may hold: a slot word
// keeps id+1 in 32 bits, so the largest ID is 2³²−2. insert checks it
// once per new value, never on a lookup; a test lowers it. Each chunk
// is opened for a value, so a string word's 32-bit chunk index never
// overflows either.
var maxValues = math.MaxUint32

// capacityError is the panic of a dictionary or row set that is full.
// ReadText returns it as an error carrying the line number.
type capacityError string

func (e capacityError) Error() string { return string(e) }

const (
	errDictionaryFull capacityError = "rel: dictionary full: it holds 2^32-1 values, the most 32-bit IDs allow"
	errRowSetFull     capacityError = "rel: row set full: it holds 2^31-1 rows, the most int32 positions allow"
)

// place stores a slot that is not in the table at the end of its run.
func (in *Interner) place(s uint64) {
	mask := uint64(len(in.slots) - 1)
	i := s >> 32 & mask
	for in.slots[i] != 0 {
		i = (i + 1) & mask
	}
	in.slots[i] = s
}

// internText interns the value whose display form is b — ParseValue
// fused with Intern for the text loader: no Value and no string is
// built for a field already in the dictionary. The string case is
// find's walk keyed by the field's bytes.
func (in *Interner) internText(b []byte) uint32 {
	if n, ok := parseInt(b); ok {
		return in.Intern(Int(n))
	}
	if in.base != nil {
		panic("rel: internText on a based dictionary") // the loader's dictionaries have no base
	}
	h := maphash.Bytes(hashSeed, b)
	mask := uint64(len(in.slots) - 1)
	for i := h >> 32 & mask; len(in.slots) > 0 && in.slots[i] != 0; i = (i + 1) & mask {
		if w := in.slots[i]; w>>32 == h>>32 {
			if id := uint32(w) - 1; in.isString(id) && in.str(in.word(id)) == string(b) {
				return id
			}
		}
	}
	return in.insert(h, in.keep(b), true)
}

const minChunk, maxChunk = 256, 64 << 10

// keep copies b into string storage the dictionary owns and returns
// its word: chunks that double from minChunk to maxChunk, so that every
// offset fits in 16 bits, and a string over a quarter of maxChunk in a
// chunk of its own, so that the tail a full-size chunk abandons is
// under a quarter of it. The empty string is a chunk of its own too: a
// dictionary holds it once, and it needs no room in the open chunk. A
// strings.Builder that is never grown past its capacity never moves or
// rewrites the bytes it has handed out, so a chunk string taken
// earlier stays a valid prefix of the open chunk.
func (in *Interner) keep(b []byte) uint64 {
	if len(b) == 0 || len(b) > maxChunk/4 {
		return in.own(string(b))
	}
	w := in.room(len(b))
	in.chunk.Write(b)
	in.chunks[in.open] = in.chunk.String()
	return w
}

// keepString is keep for a string that came through Intern. A long
// one is immutable already and becomes its own chunk uncopied.
func (in *Interner) keepString(s string) uint64 {
	if len(s) == 0 || len(s) > maxChunk/4 {
		return in.own(s)
	}
	w := in.room(len(s))
	in.chunk.WriteString(s)
	in.chunks[in.open] = in.chunk.String()
	return w
}

// own appends s as a chunk of its own and returns its word.
func (in *Interner) own(s string) uint64 {
	in.chunks = append(in.chunks, s)
	return uint64(len(in.chunks)-1)<<32 | wholeChunk
}

// room returns the word of the n bytes, 0 < n <= maxChunk/4, that the
// next write to the open chunk stores, first opening a chunk when none
// is open or the open one lacks the room.
func (in *Interner) room(n int) uint64 {
	if in.chunk.Cap() == 0 || n > in.chunk.Cap()-in.chunk.Len() {
		size := min(max(2*in.chunk.Cap(), minChunk), maxChunk)
		for size < n {
			size *= 2
		}
		in.chunk.Reset()
		in.chunk.Grow(size)
		in.open = uint32(len(in.chunks))
		in.chunks = append(in.chunks, "")
	}
	return uint64(in.open)<<32 | uint64(in.chunk.Len())<<16 | uint64(n)
}

// ID returns the ID of v without interning; ok is false when v has not
// been seen.
func (in *Interner) ID(v Value) (uint32, bool) { return in.find(hashOf(v), v) }

// Value returns the value with the given ID, rebuilt from its word
// without allocating. It panics when the ID has not been assigned. It
// spells out word and isString to stay within the inliner's budget.
func (in *Interner) Value(id uint32) Value {
	w := in.pages[id>>pageBits][id&pageMask]
	if in.kinds[id>>6]>>(id&63)&1 == 0 {
		return Value{i: int64(w)} // KindInt is the zero Kind
	}
	return Value{kind: KindString, s: in.str(w)}
}

// Len returns the number of distinct values interned.
func (in *Interner) Len() int {
	if len(in.pages) == 0 {
		return 0
	}
	return (len(in.pages)-1)<<pageBits + len(in.pages[len(in.pages)-1])
}

// Clone returns a copy of the dictionary: same values, same IDs, its
// own copy of the index, of the kind bitmap and of every page (as
// large as its original) but a based dictionary's full pages of the
// base, which no one writes again. It shares the chunks' strings,
// which never change within their length, and opens a chunk of its
// own for its next string: both sides appending into one chunk tail
// would overwrite each other's strings. A clone of a based dictionary
// sits on the same base. Relation.Clone calls it, so a clone can keep
// interning while readers of its source never observe a write.
func (in *Interner) Clone() *Interner {
	c := &Interner{
		slots:   slices.Clone(in.slots),
		pages:   make([][]uint64, len(in.pages)),
		kinds:   slices.Clone(in.kinds),
		chunks:  slices.Clone(in.chunks),
		base:    in.base,
		based:   in.based,
		over:    in.over,
		overLen: in.overLen,
	}
	for i, p := range in.pages {
		if i < int(in.based>>pageBits) {
			c.pages[i] = p
		} else {
			c.pages[i] = append(make([]uint64, 0, cap(p)), p...)
		}
	}
	return c
}

// HashIDs mixes a sequence of interned IDs into a 64-bit hash
// (FNV-1a over the IDs followed by a splitmix64-style finisher). The
// hash is used for bucketing only — callers must always confirm
// equality on the tuples themselves — so collisions cost time, never
// correctness. It backs RowSet, the module's one row index, and the
// join and group keys of the materialized evaluators.
func HashIDs(ids []uint32) uint64 {
	h := uint64(hashOffset)
	for _, id := range ids {
		h = (h ^ uint64(id)) * hashPrime
	}
	return hashFinish(h)
}

// The FNV-1a parameters and the finisher of HashIDs, split out so
// RowSet can re-hash a stored row straight from its columns.
const (
	hashOffset = 14695981039346656037
	hashPrime  = 1099511628211
)

func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
