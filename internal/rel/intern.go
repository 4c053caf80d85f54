package rel

// This file implements value interning: a dictionary assigning each
// distinct Value a dense uint32 ID. Interned IDs replace the injective
// string encodings of Tuple.Key on the hot paths (relation
// deduplication, hash joins, hash division, set-join grouping): an
// integer map probe is both allocation-free and considerably cheaper
// than building a key string per tuple. The string path remains
// available through Tuple.Key as the fallback for code that needs an
// injective encoding without a shared dictionary.

// Interner assigns dense uint32 IDs to values. IDs are allocated in
// first-intern order starting at 0, so an Interner also acts as an
// ordered dictionary of the distinct values it has seen. The zero
// Interner is not usable; call NewInterner.
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
	ints map[int64]uint32
	strs map[string]uint32
	vals []Value
}

// NewInterner returns an empty dictionary.
func NewInterner() *Interner {
	return &Interner{ints: make(map[int64]uint32), strs: make(map[string]uint32)}
}

// Intern returns the ID of v, assigning the next free ID when v has not
// been seen before.
func (in *Interner) Intern(v Value) uint32 {
	if v.kind == KindInt {
		if id, ok := in.ints[v.i]; ok {
			return id
		}
		id := in.push(v)
		in.ints[v.i] = id
		return id
	}
	if id, ok := in.strs[v.s]; ok {
		return id
	}
	id := in.push(v)
	in.strs[v.s] = id
	return id
}

// push appends a value that is new to the dictionary and returns its
// ID. A full dictionary doubles: append's 1.25x steps copy a
// dictionary that a bulk load fills about five times over, and that
// garbage is what sets the collector off mid-load.
func (in *Interner) push(v Value) uint32 {
	if len(in.vals) == cap(in.vals) {
		grown := make([]Value, len(in.vals), max(2*cap(in.vals), 8))
		copy(grown, in.vals)
		in.vals = grown
	}
	in.vals = append(in.vals, v)
	return uint32(len(in.vals) - 1)
}

// internText interns the value whose display form is b — ParseValue
// fused with Intern for the text loader: no Value and no string is
// built for a field already in the dictionary, and b is copied only
// when it is a string seen for the first time.
func (in *Interner) internText(b []byte) uint32 {
	if n, ok := parseInt(b); ok {
		return in.Intern(Int(n))
	}
	if id, ok := in.strs[string(b)]; ok {
		return id
	}
	return in.Intern(Str(string(b)))
}

// ID returns the ID of v without interning; ok is false when v has not
// been seen.
func (in *Interner) ID(v Value) (uint32, bool) {
	if v.kind == KindInt {
		id, ok := in.ints[v.i]
		return id, ok
	}
	id, ok := in.strs[v.s]
	return id, ok
}

// Value returns the value with the given ID. It panics when the ID has
// not been assigned.
func (in *Interner) Value(id uint32) Value { return in.vals[id] }

// Len returns the number of distinct values interned.
func (in *Interner) Len() int { return len(in.vals) }

// Clone returns a deep copy of the dictionary: same values, same IDs,
// fully independent storage. It is the copy-on-write primitive of the
// epoch machinery — a writer that must keep interning after its
// dictionary was sealed into a published snapshot clones it first, so
// the snapshot's readers never observe a map write.
func (in *Interner) Clone() *Interner {
	c := &Interner{
		ints: make(map[int64]uint32, len(in.ints)),
		strs: make(map[string]uint32, len(in.strs)),
		vals: make([]Value, len(in.vals)),
	}
	for k, v := range in.ints {
		c.ints[k] = v
	}
	for k, v := range in.strs {
		c.strs[k] = v
	}
	copy(c.vals, in.vals)
	return c
}

// HashIDs mixes a sequence of interned IDs into a 64-bit hash
// (FNV-1a over the IDs followed by a splitmix64-style finisher). The
// hash is used for bucketing only — callers must always confirm
// equality on the tuples themselves — so collisions cost time, never
// correctness. It backs the relation deduplication index and the
// many-equality hash joins in internal/ra.
func HashIDs(ids []uint32) uint64 {
	h := uint64(hashOffset)
	for _, id := range ids {
		h = (h ^ uint64(id)) * hashPrime
	}
	return hashFinish(h)
}

// The FNV-1a parameters and the finisher of HashIDs, split out so the
// dedup index can hash a stored row straight from its ID columns.
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
