package setjoin

import (
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
	out := rel.NewRelation(2)
	for _, gr := range r {
		for _, gs := range s {
			st.PairsConsidered++
			st.Verifications++
			if gr.ContainsAll(gs, &st.Comparisons) {
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
	out := rel.NewRelation(2)
	for _, gr := range r {
		for _, gs := range s {
			st.PairsConsidered++
			if gs.sig&^gr.sig != 0 {
				continue // a bit of D is missing from B: cannot contain
			}
			st.Verifications++
			if gr.ContainsAll(gs, &st.Comparisons) {
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
// joins.
type InvertedIndexContainment struct{}

// Name implements Algorithm.
func (InvertedIndexContainment) Name() string { return "inverted-index" }

// Predicate implements Algorithm.
func (InvertedIndexContainment) Predicate() Predicate { return Containment }

// Join implements Algorithm.
func (InvertedIndexContainment) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := rel.NewRelation(2)
	elems := rel.NewInterner() // shared element dictionary: ID -> postings index
	index := map[uint32][]*Group{}
	for _, gr := range r {
		for _, e := range gr.Elems {
			id := elems.Intern(e)
			index[id] = append(index[id], gr)
			st.Probes++
		}
	}
	for _, gs := range s {
		if len(gs.Elems) == 0 {
			// The empty set is contained in every B-set.
			for _, gr := range r {
				st.PairsConsidered++
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
			continue
		}
		// Probe with the rarest element of D. An element missing from
		// the dictionary appears in no R-set: no candidates at all.
		var candidates []*Group
		first := true
		for _, e := range gs.Elems {
			st.Probes++
			var posting []*Group
			if id, ok := elems.ID(e); ok {
				posting = index[id]
			}
			if first || len(posting) < len(candidates) {
				candidates = posting
				first = false
			}
		}
		for _, gr := range candidates {
			st.PairsConsidered++
			if gs.sig&^gr.sig != 0 {
				continue
			}
			st.Verifications++
			if gr.ContainsAll(gs, &st.Comparisons) {
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
		}
	}
	return out, st
}

// HashEquality is the canonical-encoding hash join for the
// set-equality predicate: hash every R-group by the canonical
// encoding of its element set and probe with each S-group. Expected
// O(input) + output, realizing footnote 1's bound (the sort inside
// Groups contributes the n log n term). Encodings run on one shared
// Dict — dense interned element IDs instead of the Tuple.Key string
// path — so the build interns and the probe is read-only: an S-set
// with an element the dictionary has never seen matches nothing and
// skips its lookup outright.
type HashEquality struct{}

// Name implements Algorithm.
func (HashEquality) Name() string { return "hash-equality" }

// Predicate implements Algorithm.
func (HashEquality) Predicate() Predicate { return Equal }

// Join implements Algorithm.
func (HashEquality) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := rel.NewRelation(2)
	dict := NewDict()
	index := map[string][]*Group{}
	for _, gr := range r {
		st.Probes++
		k := dict.Key(gr)
		index[k] = append(index[k], gr)
	}
	for _, gs := range s {
		st.Probes++
		k, ok := dict.ProbeKey(gs)
		if !ok {
			continue
		}
		for _, gr := range index[k] {
			st.PairsConsidered++
			out.Add(rel.Tuple{gr.Key, gs.Key})
		}
	}
	return out, st
}

// SortEquality is the sort-based set-equality join: sort both sides by
// canonical encoding — interned through one shared Dict — and merge
// equal runs. O(n log n) + output.
type SortEquality struct{}

// Name implements Algorithm.
func (SortEquality) Name() string { return "sort-equality" }

// Predicate implements Algorithm.
func (SortEquality) Predicate() Predicate { return Equal }

// Join implements Algorithm.
func (SortEquality) Join(r, s []*Group) (*rel.Relation, Stats) {
	var st Stats
	out := rel.NewRelation(2)
	dict := NewDict()
	type keyed struct {
		key string
		g   *Group
	}
	mk := func(gs []*Group) []keyed {
		out := make([]keyed, len(gs))
		for i, g := range gs {
			out[i] = keyed{dict.Key(g), g}
		}
		sort.Slice(out, func(i, j int) bool {
			st.Comparisons++
			return out[i].key < out[j].key
		})
		return out
	}
	rk, sk := mk(r), mk(s)
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
	out := rel.NewRelation(2)
	dict := NewDict()
	sKeys := make([]string, len(s))
	for i, gs := range s {
		sKeys[i] = dict.Key(gs)
	}
	for _, gr := range r {
		rk := dict.Key(gr)
		for i, gs := range s {
			st.PairsConsidered++
			st.Verifications++
			st.Comparisons += min(len(gr.Elems), len(gs.Elems)) + 1
			if rk == sKeys[i] {
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
	out := rel.NewRelation(2)
	elems := rel.NewInterner()
	index := map[uint32][]*Group{}
	for _, gr := range r {
		for _, e := range gr.Elems {
			st.Probes++
			id := elems.Intern(e)
			index[id] = append(index[id], gr)
		}
	}
	for _, gs := range s {
		for _, e := range gs.Elems {
			st.Probes++
			id, ok := elems.ID(e)
			if !ok {
				continue // element in no R-set: joins with nothing
			}
			for _, gr := range index[id] {
				st.PairsConsidered++
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
		}
	}
	return out, st
}

// ContainmentAlgorithms returns the containment-join implementations,
// parallel variants at their default worker count.
func ContainmentAlgorithms() []Algorithm { return ContainmentAlgorithmsWorkers(0) }

// ContainmentAlgorithmsWorkers is ContainmentAlgorithms with an
// explicit worker count for the parallel variants (<= 0 means one
// worker per CPU).
func ContainmentAlgorithmsWorkers(workers int) []Algorithm {
	return []Algorithm{
		NestedLoopContainment{},
		SignatureContainment{},
		InvertedIndexContainment{},
		PartitionedContainment{},
		ParallelSignatureContainment{Workers: workers},
	}
}

// EqualityAlgorithms returns the equality-join implementations,
// parallel variants at their default worker count.
func EqualityAlgorithms() []Algorithm { return EqualityAlgorithmsWorkers(0) }

// EqualityAlgorithmsWorkers is EqualityAlgorithms with an explicit
// worker count for the parallel variants (<= 0 means one worker per
// CPU).
func EqualityAlgorithmsWorkers(workers int) []Algorithm {
	return []Algorithm{
		NestedLoopEquality{}, SortEquality{}, HashEquality{},
		ParallelHashEquality{Workers: workers},
	}
}
