// Package setjoin implements the set joins of the paper's
// introduction: for binary relations R(A,B) and S(C,D), the
// set-containment join R ⋈_{B⊇D} S returning the pairs (a,c) with
// {b | R(a,b)} ⊇ {d | S(c,d)}, the set-equality join (= instead of ⊇),
// and the set-overlap join ("intersection nonempty", which the paper
// notes boils down to an ordinary equijoin).
//
// Algorithms follow the literature the paper cites: block nested-loop
// with sorted-set verification, signature nested-loop à la Helmer and
// Moerkotte (VLDB 1997), and an inverted-index probe in the spirit of
// Ramasamy et al. (VLDB 2000) and Mamoulis (SIGMOD 2003). For the
// equality join a canonical-encoding hash join achieves the
// O(n log n) + output bound of the paper's footnote 1; no
// sub-quadratic algorithm is known for the containment join, matching
// the paper's remark.
package setjoin

import (
	"fmt"
	"sort"
	"strings"

	"radiv/internal/rel"
)

// Group is one set-valued row: a key value and its associated element
// set, sorted.
//
// Elems must be sorted and distinct for the containment machinery —
// ContainsAll merges and ContainsElem binary-searches, so an unsorted
// hand-built group silently misses elements there. Groups and NewGroup
// establish the invariant; build hand-made groups through NewGroup
// rather than struct literals. CanonicalKey alone is lenient: it
// normalizes unsorted literal-built groups before encoding, because
// equality joins are the documented consumer of ad-hoc probe groups.
type Group struct {
	Key   rel.Value
	Elems []rel.Value // sorted, distinct
	sig   uint64
	// keyID is Key's ID in the dictionary of the batch column the group
	// was first seen in (GroupsFromBatches only). Over a stored
	// relation's scan that is the relation's own dictionary, which is
	// what lets the shard-local joins emit pairs as IDs.
	keyID uint32
}

// NewGroup builds one group from a key and its elements, establishing
// the same invariants Groups establishes for whole relations: Elems
// sorted and deduplicated (into a private copy — the caller keeps
// ownership of elems), signature precomputed. Use it for hand-built
// groups so every consumer, containment checks included, sees
// normalized input.
func NewGroup(key rel.Value, elems ...rel.Value) *Group {
	g := &Group{Key: key, Elems: normalizeElems(append([]rel.Value(nil), elems...))}
	g.sig = signature(g.Elems)
	return g
}

// Groups converts a binary relation into its set-valued form, one
// group per distinct first-column value, in first-occurrence order: it
// is GroupsFromBatches over the relation's stored ID columns, so no
// row is decoded and no key string built per tuple.
func Groups(r *rel.Relation) []*Group {
	if r.Arity() != 2 {
		panic(fmt.Sprintf("setjoin: relation arity %d, want 2", r.Arity()))
	}
	return GroupsFromBatches(r.BatchScan())
}

// GroupsFromBatches builds the groups of a columnar batch stream of
// binary rows: grouping runs on interned IDs translated through a
// rel.IDMap cache (after the first occurrence of a key value, assigning
// a row to its group is an array load), and the cursor's batches are
// released as they are consumed. Groups come in first-occurrence order
// of their keys in the stream, so any two streams carrying the same
// tuples in the same order — a relation's BatchScan, a shard view's —
// yield identical groups, which is what lets the sharded set joins feed
// shard-local batch scans straight into the group builder.
func GroupsFromBatches(in rel.BatchCursor) []*Group {
	gids := rel.NewInterner() // group key -> dense index into order
	xl := rel.NewIDMap(gids)
	var order []*Group
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		if b.Arity() != 2 {
			panic(fmt.Sprintf("setjoin: batch arity %d, want 2", b.Arity()))
		}
		n := b.Len()
		kcol, ecol := b.Col(0), b.Col(1)
		kdict, edict := b.Dict(0), b.Dict(1)
		for row := 0; row < n; row++ {
			gid := xl.Intern(kdict, kcol[row])
			if int(gid) == len(order) {
				order = append(order, &Group{Key: kdict.Value(kcol[row]), keyID: kcol[row]})
			}
			// No per-group dedup needed: the source has set semantics,
			// so (key, elem) pairs — and hence elems within a group —
			// arrive distinct.
			order[gid].Elems = append(order[gid].Elems, edict.Value(ecol[row]))
		}
		b.Release()
	}
	for _, g := range order {
		sort.Slice(g.Elems, func(i, j int) bool { return g.Elems[i].Less(g.Elems[j]) })
		g.sig = signature(g.Elems)
	}
	return order
}

// signature builds a 64-bit superset-monotone signature: the bitwise
// OR of one hash bit per element. sig(X) ⊇bits sig(Y) is necessary
// for X ⊇ Y, so signatures prune containment candidates.
func signature(elems []rel.Value) uint64 {
	var s uint64
	for _, e := range elems {
		s |= 1 << (hashValue(e) % 64)
	}
	return s
}

// hashValue hashes a value's payload directly (FNV-1a), without
// building the Tuple.Key encoding. Both join sides hash value content,
// so signatures and partitions agree across independently built group
// lists.
func hashValue(v rel.Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if v.IsInt() {
		n := uint64(v.AsInt())
		for i := 0; i < 8; i++ {
			h ^= n & 0xff
			h *= prime64
			n >>= 8
		}
		return h
	}
	for i := 0; i < len(v.AsString()); i++ {
		h ^= uint64(v.AsString()[i])
		h *= prime64
	}
	return h
}

// ContainsAll reports Elems(g) ⊇ Elems(h) by merging the sorted
// element lists; cmp receives the number of comparisons performed.
func (g *Group) ContainsAll(h *Group, cmp *int) bool {
	if len(h.Elems) > len(g.Elems) {
		*cmp++
		return false
	}
	i := 0
	for _, want := range h.Elems {
		for i < len(g.Elems) && g.Elems[i].Less(want) {
			*cmp++
			i++
		}
		*cmp++
		if i == len(g.Elems) || !g.Elems[i].Equal(want) {
			return false
		}
		i++
	}
	return true
}

// CanonicalKey returns an injective encoding of the element set that
// needs no shared dictionary: what Reference decides set equality by
// (the equality joins key through a Dict instead). It normalizes first
// — Elems is sorted and deduplicated into a copy if needed — so a
// hand-built group with unsorted or repeated elements encodes to the
// same key as the Groups-built group of the same set. It is a pure
// function of Elems: nothing is memoized on the group, so groups shared
// by concurrent workers stay read-only.
func (g *Group) CanonicalKey() string {
	var b strings.Builder
	for _, e := range normalizeElems(g.Elems) {
		b.WriteString(rel.Tuple{e}.Key())
	}
	return b.String()
}

// normalizeElems returns elems sorted and deduplicated. The input is
// returned as-is when already strictly increasing (the invariant Groups
// establishes); otherwise a normalized copy is built, leaving the
// caller's slice untouched.
func normalizeElems(elems []rel.Value) []rel.Value {
	for i := 1; i < len(elems); i++ {
		if !elems[i-1].Less(elems[i]) {
			c := make([]rel.Value, len(elems))
			copy(c, elems)
			sort.Slice(c, func(i, j int) bool { return c[i].Less(c[j]) })
			out := c[:1]
			for _, v := range c[1:] {
				if !out[len(out)-1].Equal(v) {
					out = append(out, v)
				}
			}
			return out
		}
	}
	return elems
}

// Dict is the shared canonical-key dictionary of one equality join:
// one value interner covering the elements of both sides, so the
// canonical encoding of a set becomes the sequence of its elements'
// dense IDs (4 bytes each) instead of their Tuple.Key string
// encodings. The encoding is injective for sets keyed through the
// same Dict — IDs are assigned per value, and the elements are sorted
// and deduplicated first (the same normalization CanonicalKey applies,
// so hand-built unsorted groups keep encoding correctly).
//
// Sharing one Dict across both join sides is what makes the keys
// comparable; per-relation dictionaries would assign incompatible IDs.
// A Dict is not safe for concurrent interning: the parallel equality
// join interns both sides in its sequential build phase and hands its
// exec.Run workers the read-only ProbeKey path (Contract 2 in
// internal/analysis/doc.go).
type Dict struct {
	elems *rel.Interner
	buf   []byte
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{elems: rel.NewInterner()} }

// Key returns the canonical interned encoding of g's element set,
// interning unseen elements.
func (d *Dict) Key(g *Group) string {
	elems := normalizeElems(g.Elems)
	d.buf = d.buf[:0]
	for _, e := range elems {
		id := d.elems.Intern(e)
		d.buf = append(d.buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(d.buf)
}

// ProbeKey is the read-only variant for concurrent probe phases: it
// never interns, and reports ok = false when an element has no ID yet
// — such a set cannot equal any set keyed through this Dict, so the
// probe can skip the lookup entirely.
func (d *Dict) ProbeKey(g *Group) (string, bool) {
	elems := normalizeElems(g.Elems)
	buf := make([]byte, 0, 4*len(elems))
	for _, e := range elems {
		id, ok := d.elems.ID(e)
		if !ok {
			return "", false
		}
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf), true
}

// ContainsElem reports whether v is an element of the group's set, by
// binary search over the sorted element list.
func (g *Group) ContainsElem(v rel.Value) bool {
	lo, hi := 0, len(g.Elems)
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := g.Elems[mid].Cmp(v); {
		case c == 0:
			return true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// Stats counts the work performed by a set-join algorithm.
type Stats struct {
	// PairsConsidered counts candidate (R-group, S-group) pairs
	// examined before verification.
	PairsConsidered int
	// Verifications counts full subset/equality checks.
	Verifications int
	// Comparisons counts element comparisons inside verifications.
	Comparisons int
	// Probes counts index/hash lookups.
	Probes int
}

// Predicate selects the set predicate of the join.
type Predicate int

const (
	// Containment is B ⊇ D.
	Containment Predicate = iota
	// Equal is B = D.
	Equal
	// Overlap is B ∩ D ≠ ∅.
	Overlap
)

// String renders the predicate.
func (p Predicate) String() string {
	switch p {
	case Containment:
		return "containment"
	case Equal:
		return "equality"
	default:
		return "overlap"
	}
}

// Algorithm is a set-join implementation. Join returns the (a, c)
// pairs as a binary relation.
type Algorithm interface {
	Name() string
	Predicate() Predicate
	Join(r, s []*Group) (*rel.Relation, Stats)
}

func canonicalKeys(gs []*Group) []string {
	keys := make([]string, len(gs))
	for i, g := range gs {
		keys[i] = g.CanonicalKey()
	}
	return keys
}

// Reference computes any predicate naively; the tests' oracle.
func Reference(r, s []*Group, p Predicate) *rel.Relation {
	out := rel.NewRelation(2)
	var cmp int
	var rKeys, sKeys []string // canonical keys, once per group per side
	if p == Equal {
		rKeys, sKeys = canonicalKeys(r), canonicalKeys(s)
	}
	for ri, gr := range r {
		for si, gs := range s {
			ok := false
			switch p {
			case Containment:
				ok = gr.ContainsAll(gs, &cmp)
			case Equal:
				ok = rKeys[ri] == sKeys[si]
			case Overlap:
				for _, e := range gs.Elems {
					if gr.ContainsElem(e) {
						ok = true
						break
					}
				}
			}
			if ok {
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
		}
	}
	return out
}
