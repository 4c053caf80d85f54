package rel

import (
	"hash/maphash"
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
// The dictionary is its value slice and one flat open-addressed index
// over it, for both kinds of value. A slot is 0 when empty, otherwise
// the value's 32-bit hash in the high half and 1 + its ID in the low
// half; the bucket is the hash masked to the table size, collisions
// probe linearly, and the table is kept at most half full. A probe
// compares the stored hash before it follows the ID into the value
// slice, then confirms equality on the value (kind and payload), never
// on the hash alone. Growth doubles the table and re-places the stored
// words: no value is hashed again, and a copy is two slice copies.

// Interner assigns dense uint32 IDs to values. IDs are allocated in
// first-intern order starting at 0, so an Interner also acts as an
// ordered dictionary of the distinct values it has seen. The zero
// Interner is an empty dictionary. Both hashes are seeded per process,
// as the runtime seeds the Go maps this table replaced, so no input
// can drive its values into one probe run; IDs depend on the order of
// first interning only, so nothing it returns depends on the seed. A
// string the text loader sees first is copied into a chunk the
// dictionary owns: one handed out by Value may pin up to 64 KB.
//
// An Interner is not safe for concurrent mutation. Concurrent readers
// (ID, Value, Len) are safe once interning is complete, which is the
// access pattern of the parallel executors in internal/engine: intern
// sequentially during the build phase, probe read-only from workers.
// The epoch machinery (epoch.go, snapshot.go) turns this discipline
// into a structural guarantee: dictionaries reachable from a
// published Snapshot are sealed — no code path interns into them
// again — so snapshot readers need no coordination at all, and
// FrozenDict is the read-only facade that makes the freeze a type.
type Interner struct {
	slots []uint64 // the index: empty or a power of two, at least 2*len(vals)
	vals  []Value
	chunk strings.Builder // the string storage internText is filling
}

// The per-process seeds: strings hash through the runtime's string
// hash (hash/maphash), integers through hashFinish keyed by hashKey.
var hashSeed, hashKey = maphash.MakeSeed(), rand.Uint64()

// NewInterner returns an empty dictionary.
func NewInterner() *Interner { return new(Interner) }

// hashOf returns the hash of v; a slot keeps its high half.
func hashOf(v Value) uint64 {
	if v.kind == KindInt {
		return hashFinish((uint64(v.i) ^ hashKey) * hashPrime)
	}
	return maphash.String(hashSeed, v.s)
}

// find walks the probe run of hash h, which ends at an empty slot, and
// returns the ID of v when the run holds it. It writes nothing. (The
// len test is for the dictionary that has no table yet.)
func (in *Interner) find(h uint64, v Value) (uint32, bool) {
	mask := uint64(len(in.slots) - 1)
	for i := h >> 32 & mask; len(in.slots) > 0 && in.slots[i] != 0; i = (i + 1) & mask {
		if w := in.slots[i]; w>>32 == h>>32 && in.vals[uint32(w)-1] == v {
			return uint32(w) - 1, true
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
	return in.insert(h, v)
}

// insert appends a value that is new to the dictionary and returns its
// ID. A full value slice doubles: append's 1.25x steps copy a
// dictionary that a bulk load fills about five times over, and that
// garbage is what sets the collector off mid-load. A half-full index
// doubles too, and its words are re-placed as they stand.
func (in *Interner) insert(h uint64, v Value) uint32 {
	if len(in.vals) == cap(in.vals) {
		grown := make([]Value, len(in.vals), max(2*cap(in.vals), 8))
		copy(grown, in.vals)
		in.vals = grown
	}
	in.vals = append(in.vals, v)
	if old := in.slots; 2*len(in.vals) > len(old) {
		in.slots = make([]uint64, max(2*len(old), 8))
		for _, w := range old {
			if w != 0 {
				in.place(w)
			}
		}
	}
	in.place(h>>32<<32 | uint64(len(in.vals)))
	return uint32(len(in.vals) - 1)
}

// place stores a word that is not in the table at the end of its run.
func (in *Interner) place(w uint64) {
	mask := uint64(len(in.slots) - 1)
	i := w >> 32 & mask
	for in.slots[i] != 0 {
		i = (i + 1) & mask
	}
	in.slots[i] = w
}

// internText interns the value whose display form is b — ParseValue
// fused with Intern for the text loader: no Value and no string is
// built for a field already in the dictionary. The string case is
// find's walk keyed by the field's bytes.
func (in *Interner) internText(b []byte) uint32 {
	if n, ok := parseInt(b); ok {
		return in.Intern(Int(n))
	}
	h := maphash.Bytes(hashSeed, b)
	mask := uint64(len(in.slots) - 1)
	for i := h >> 32 & mask; len(in.slots) > 0 && in.slots[i] != 0; i = (i + 1) & mask {
		if w := in.slots[i]; w>>32 == h>>32 {
			if v := &in.vals[uint32(w)-1]; v.kind == KindString && v.s == string(b) {
				return uint32(w) - 1
			}
		}
	}
	return in.insert(h, Str(in.keep(b)))
}

const minChunk, maxChunk = 256, 64 << 10

// keep copies b into string storage the dictionary owns: chunks that
// double from minChunk to maxChunk, a string over a quarter of
// maxChunk on its own so that the tail a full-size chunk abandons is
// under a quarter of it. A strings.Builder that is never grown past
// its capacity never moves or rewrites the bytes it has handed out.
func (in *Interner) keep(b []byte) string {
	if len(b) > maxChunk/4 {
		return string(b)
	}
	if len(b) > in.chunk.Cap()-in.chunk.Len() {
		size := min(max(2*in.chunk.Cap(), minChunk), maxChunk)
		for size < len(b) {
			size *= 2
		}
		in.chunk.Reset()
		in.chunk.Grow(size)
	}
	n := in.chunk.Len()
	in.chunk.Write(b)
	return in.chunk.String()[n:]
}

// ID returns the ID of v without interning; ok is false when v has not
// been seen.
func (in *Interner) ID(v Value) (uint32, bool) { return in.find(hashOf(v), v) }

// Value returns the value with the given ID. It panics when the ID has
// not been assigned.
func (in *Interner) Value(id uint32) Value { return in.vals[id] }

// Len returns the number of distinct values interned.
func (in *Interner) Len() int { return len(in.vals) }

// Clone returns a deep copy of the dictionary: same values, same IDs,
// fully independent storage. The clone starts a chunk of its own: both
// sides appending into one chunk tail would overwrite each other's
// strings. It is the copy-on-write primitive of the epoch machinery —
// a writer that must keep interning after its dictionary was sealed
// into a published snapshot clones it first, so the snapshot's readers
// never observe a write.
func (in *Interner) Clone() *Interner {
	return &Interner{slots: slices.Clone(in.slots), vals: slices.Clone(in.vals)}
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
