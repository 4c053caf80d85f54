package setjoin

import (
	"slices"
	"sort"

	"radiv/internal/rel"
)

// NestedLoopContainment is the baseline containment join: verify every
// pair with the sorted-merge subset check. O(|R|·|S|) verifications.
type NestedLoopContainment struct{}

// Name implements Algorithm.
func (NestedLoopContainment) Name() string { return "nested-loop" }

// Predicate implements Algorithm.
func (NestedLoopContainment) Predicate() Predicate { return Containment }

// Join implements Algorithm.
func (NestedLoopContainment) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := result(r)
	s = align(r, s)
	for _, gr := range r {
		for _, gs := range s {
			st.PairsConsidered++
			st.Verifications++
			if containsAll(gr.ids, gs.ids, &st.Comparisons) {
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
		}
	}
	return out, st
}

// SignatureContainment is the signature nested-loop join of Helmer and
// Moerkotte: a 64-bit superset-monotone signature filters pairs before
// the expensive verification. Still quadratic in the worst case but
// with a much smaller constant on selective workloads.
type SignatureContainment struct{}

// Name implements Algorithm.
func (SignatureContainment) Name() string { return "signature" }

// Predicate implements Algorithm.
func (SignatureContainment) Predicate() Predicate { return Containment }

// Join implements Algorithm.
func (SignatureContainment) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := result(r)
	s = align(r, s)
	for _, gr := range r {
		for _, gs := range s {
			st.PairsConsidered++
			if gs.sig&^gr.sig != 0 {
				continue // a bit of D is missing from B: cannot contain
			}
			st.Verifications++
			if containsAll(gr.ids, gs.ids, &st.Comparisons) {
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
		}
	}
	return out, st
}

// InvertedIndexContainment builds an inverted index from elements to
// the R-groups containing them; each S-group probes the index with its
// rarest element and verifies only those candidates. This is the
// probe-smallest-postings strategy behind PSJ-style partitioned set
// joins, run as ShardContainment over the whole of R; the pairs come
// out R-major.
type InvertedIndexContainment struct{}

// Name implements Algorithm.
func (InvertedIndexContainment) Name() string { return "inverted-index" }

// Predicate implements Algorithm.
func (InvertedIndexContainment) Predicate() Predicate { return Containment }

// Join implements Algorithm. The pairs stay IDs from the kernel to the
// result: each R group's rank is its gid, and when every S group was
// grouped from R's source dictionary the two columns are re-pointed at
// the keys' IDs there and go to the result, whose dictionary is based
// on that one, as one view batch, as the sharded merge does. S keys of
// another dictionary go in by pair-by-pair Adds, which give the result
// the rows and dictionary the other joins give it.
func (InvertedIndexContainment) Join(r, s []*Group) (*rel.Relation, Stats) {
	rank := make([]uint32, len(r))
	for i, g := range r {
		rank[i] = g.gid
	}
	p, st := ShardContainment(r, s, rank)
	out := result(r)
	if len(p.R) == 0 {
		return out, st
	}
	out.Reserve(len(p.R))
	d := r[0].dict
	if slices.ContainsFunc(s, func(g *Group) bool { return g.dict.src != d.src }) {
		t := make(rel.Tuple, 2)
		for j, gid := range p.R {
			t[0], t[1] = d.src.Value(d.keys[gid]), s[p.S[j]].Key
			out.Add(t)
		}
		return out, st
	}
	for j, si := range p.S {
		g := s[si]
		p.R[j], p.S[j] = d.keys[p.R[j]], g.dict.keys[g.gid]
	}
	cols := [][]uint32{p.R, p.S}
	var view rel.Batch
	view.MakeView(cols, d.src)
	view.SliceView(cols, 0, len(p.R))
	out.AddBatch(&view)
	return out, st
}

// HashEquality is the canonical-encoding hash join for the
// set-equality predicate: hash every R-group by the canonical
// encoding of its element set and probe with each S-group. Expected
// O(input) + output, realizing footnote 1's bound (the sort inside
// Groups contributes the n log n term). The encoding is the group's
// run of element IDs, 4 bytes each, with S aligned to R's dictionary
// first; an S-set with an element no R-set has ends in absent and
// matches nothing.
type HashEquality struct{}

// Name implements Algorithm.
func (HashEquality) Name() string { return "hash-equality" }

// Predicate implements Algorithm.
func (HashEquality) Predicate() Predicate { return Equal }

// Join implements Algorithm.
func (HashEquality) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := result(r)
	index := keyIndex(r, &st.Probes)
	var buf []byte
	for _, gs := range align(r, s) {
		st.Probes++
		buf = runKey(buf[:0], gs.ids)
		for _, ri := range index[string(buf)] {
			st.PairsConsidered++
			out.Add(rel.Tuple{r[ri].Key, gs.Key})
		}
	}
	return out, st
}

// SortEquality is the sort-based set-equality join: sort both sides by
// the encoding of their ID runs, S aligned to R's dictionary, and merge
// equal runs. O(n log n) + output.
type SortEquality struct{}

// Name implements Algorithm.
func (SortEquality) Name() string { return "sort-equality" }

// Predicate implements Algorithm.
func (SortEquality) Predicate() Predicate { return Equal }

// Join implements Algorithm.
func (SortEquality) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := result(r)
	type keyed struct {
		key string
		g   *Group
	}
	mk := func(gs []*Group) []keyed {
		out := make([]keyed, len(gs))
		for i, g := range gs {
			out[i] = keyed{string(runKey(nil, g.ids)), g}
		}
		sort.Slice(out, func(i, j int) bool {
			st.Comparisons++
			return out[i].key < out[j].key
		})
		return out
	}
	rk, sk := mk(r), mk(align(r, s))
	i, j := 0, 0
	for i < len(rk) && j < len(sk) {
		st.Comparisons++
		switch {
		case rk[i].key < sk[j].key:
			i++
		case rk[i].key > sk[j].key:
			j++
		default:
			// Equal runs: emit the cross product of the runs.
			i2 := i
			for i2 < len(rk) && rk[i2].key == rk[i].key {
				i2++
			}
			j2 := j
			for j2 < len(sk) && sk[j2].key == sk[j].key {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					st.PairsConsidered++
					out.Add(rel.Tuple{rk[a].g.Key, sk[b].g.Key})
				}
			}
			i, j = i2, j2
		}
	}
	return out, st
}

// NestedLoopEquality is the baseline equality join.
type NestedLoopEquality struct{}

// Name implements Algorithm.
func (NestedLoopEquality) Name() string { return "nested-loop-equality" }

// Predicate implements Algorithm.
func (NestedLoopEquality) Predicate() Predicate { return Equal }

// Join implements Algorithm.
func (NestedLoopEquality) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := result(r)
	aligned := align(r, s)
	for _, gr := range r {
		for i, gs := range aligned {
			st.PairsConsidered++
			st.Verifications++
			st.Comparisons += min(len(gr.ids), len(s[i].ids)) + 1
			if slices.Equal(gr.ids, gs.ids) {
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
		}
	}
	return out, st
}

// EquijoinOverlap realizes the paper's observation that the overlap
// predicate (B ∩ D ≠ ∅) "boils down to an ordinary equijoin": join the
// element lists on equality and deduplicate the (a, c) pairs.
type EquijoinOverlap struct{}

// Name implements Algorithm.
func (EquijoinOverlap) Name() string { return "equijoin-overlap" }

// Predicate implements Algorithm.
func (EquijoinOverlap) Predicate() Predicate { return Overlap }

// Join implements Algorithm.
func (EquijoinOverlap) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := result(r)
	index := newPostings(r)
	st.Probes += len(index.pos)
	for _, gs := range align(r, s) {
		for _, id := range gs.ids {
			st.Probes++
			for _, ri := range index.of(id) { // absent: in no R-set, joins with nothing
				st.PairsConsidered++
				out.Add(rel.Tuple{r[ri].Key, gs.Key})
			}
		}
	}
	return out, st
}

// ContainmentAlgorithms returns the containment-join implementations.
func ContainmentAlgorithms() []Algorithm {
	return []Algorithm{
		NestedLoopContainment{},
		SignatureContainment{},
		InvertedIndexContainment{},
		PartitionedContainment{},
	}
}

// EqualityAlgorithms returns the equality-join implementations.
func EqualityAlgorithms() []Algorithm {
	return []Algorithm{NestedLoopEquality{}, SortEquality{}, HashEquality{}}
}
