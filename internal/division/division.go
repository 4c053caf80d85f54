// Package division implements relational division R(A,B) ÷ S(B) with
// the algorithms the paper's discussion builds on: the classical
// relational-algebra expression (provably quadratic, Proposition 26),
// Graefe's direct algorithms — nested-loop division, merge-sort
// (sort-based) division, hash division, and aggregate (counting)
// division — and the equality variant of each ("exact division",
// where the B-set of a group must equal S rather than contain it).
//
// All algorithms implement the Algorithm interface so the benchmark
// harness can sweep them uniformly; Stats exposes the operation
// counters that make the paper's asymptotic claims observable
// (footnote 1: division is O(n log n) by sorting or counting, versus
// the quadratic pure-RA expressions).
package division

import (
	"fmt"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// Semantics selects containment division (the B-set of a group must
// contain S) or equality division (must equal S).
type Semantics int

const (
	// Containment is Codd's original division: {a | {b : R(a,b)} ⊇ S}.
	Containment Semantics = iota
	// Equality keeps a's with {b : R(a,b)} = S.
	Equality
)

// String renders the semantics.
func (s Semantics) String() string {
	if s == Equality {
		return "equality"
	}
	return "containment"
}

// Stats counts the basic operations an algorithm performed, as a
// machine-independent cost observable.
type Stats struct {
	// Comparisons counts value comparisons (including hash-key
	// equality checks).
	Comparisons int
	// Probes counts hash-table lookups/inserts.
	Probes int
	// TuplesRead counts input tuples scanned.
	TuplesRead int
	// MaxMemoryTuples is the peak number of tuples materialized in
	// auxiliary structures.
	MaxMemoryTuples int
}

// Algorithm is a division operator implementation.
type Algorithm interface {
	// Name identifies the algorithm in benchmark reports.
	Name() string
	// Divide computes R ÷ S under the given semantics. R must be
	// binary and S unary.
	Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats)
}

// checkInputs validates the standard shapes.
func checkInputs(r, s *rel.Relation) {
	if r.Arity() != 2 {
		panic(fmt.Sprintf("division: R has arity %d, want 2", r.Arity()))
	}
	if s.Arity() != 1 {
		panic(fmt.Sprintf("division: S has arity %d, want 1", s.Arity()))
	}
}

// Reference computes division by a straightforward group-and-check and
// is the oracle the tests compare everything against. It deliberately
// stays on the Tuple.Key string path, independent of the interned fast
// paths it oracles.
func Reference(r, s *rel.Relation, sem Semantics) *rel.Relation {
	checkInputs(r, s)
	groups := make(map[string]map[string]bool)
	reps := make(map[string]rel.Value)
	for _, t := range r.Tuples() {
		k := rel.Tuple{t[0]}.Key()
		if groups[k] == nil {
			groups[k] = make(map[string]bool)
			reps[k] = t[0]
		}
		groups[k][rel.Tuple{t[1]}.Key()] = true
	}
	want := make(map[string]bool)
	for _, t := range s.Tuples() {
		want[rel.Tuple{t[0]}.Key()] = true
	}
	out := rel.NewRelation(1)
	for k, g := range groups {
		ok := true
		for b := range want {
			if !g[b] {
				ok = false
				break
			}
		}
		if ok && sem == Equality && len(g) != len(want) {
			ok = false
		}
		if ok {
			out.Add(rel.Tuple{reps[k]})
		}
	}
	return out
}

// NestedLoop is Graefe's naive division: for every candidate group,
// scan S and probe the group's members. Worst case O(|R|·|S|).
type NestedLoop struct{}

// Name implements Algorithm.
func (NestedLoop) Name() string { return "nested-loop" }

// Divide implements Algorithm.
func (NestedLoop) Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats) {
	checkInputs(r, s)
	var st Stats
	out := rel.NewRelation(1)
	rt, stp := r.Tuples(), s.Tuples()
	// Distinct candidates in first-occurrence order.
	var candidates []rel.Value
	seen := rel.NewInterner()
	for _, t := range rt {
		st.TuplesRead++
		before := seen.Len()
		if int(seen.Intern(t[0])) == before {
			candidates = append(candidates, t[0])
		}
	}
	st.MaxMemoryTuples = len(candidates)
	for _, a := range candidates {
		all := true
		matched := 0
		for _, sv := range stp {
			st.TuplesRead++
			found := false
			for _, t := range rt {
				st.Comparisons += 2
				if t[0].Equal(a) && t[1].Equal(sv[0]) {
					found = true
					break
				}
			}
			if found {
				matched++
			} else {
				all = false
				break
			}
		}
		if all && sem == Equality {
			// Count the group size to compare with |S|.
			size := 0
			for _, t := range rt {
				st.Comparisons++
				if t[0].Equal(a) {
					size++
				}
			}
			if size != s.Len() {
				all = false
			}
		}
		if all {
			out.Add(rel.Tuple{a})
		}
	}
	return out, st
}

// MergeSort is Graefe's merge-sort division: sort R by (A, B) and S by
// B, then merge each group against S in one pass. O(n log n) plus a
// linear merge.
type MergeSort struct{}

// Name implements Algorithm.
func (MergeSort) Name() string { return "merge-sort" }

// Divide implements Algorithm.
func (MergeSort) Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats) {
	checkInputs(r, s)
	var st Stats
	rt := r.Sorted() // lexicographic (A, B) — counts as the sort phase
	stt := s.Sorted()
	st.TuplesRead = len(rt) + len(stt)
	st.MaxMemoryTuples = len(rt) + len(stt)
	// Charge the sorts: n log n comparisons, the standard bound.
	st.Comparisons += sortCost(len(rt)) + sortCost(len(stt))
	out := rel.NewRelation(1)
	i := 0
	for i < len(rt) {
		a := rt[i][0]
		// Merge this group's B-run against sorted S.
		j, k := i, 0
		extras := false
		for j < len(rt) && rt[j][0].Equal(a) {
			st.Comparisons++
			if k < len(stt) {
				c := rt[j][1].Cmp(stt[k][0])
				st.Comparisons++
				switch {
				case c == 0:
					j++
					k++
				case c < 0:
					extras = true
					j++
				default:
					// S value missing from the group.
					k = len(stt) + 1 // poison
					j++
				}
			} else {
				extras = true
				j++
			}
		}
		ok := k == len(stt)
		if sem == Equality && extras {
			ok = false
		}
		if ok {
			out.Add(rel.Tuple{a})
		}
		// Skip the rest of the group.
		for i < len(rt) && rt[i][0].Equal(a) {
			st.Comparisons++
			i++
		}
	}
	return out, st
}

func sortCost(n int) int {
	cost := 0
	for m := n; m > 1; m /= 2 {
		cost += n
	}
	return cost
}

// divGroup is the per-candidate state of hash division: a bitmap over
// divisor slots plus hit/extra counters, as in Graefe's hash division.
type divGroup struct {
	rep    rel.Value
	seen   []uint64 // bitmap over divisor slots
	hits   int
	extras int
}

func (g *divGroup) mark(slot uint32) {
	if g.seen[slot/64]&(1<<(slot%64)) == 0 {
		g.seen[slot/64] |= 1 << (slot % 64)
		g.hits++
	}
}

// Hash is Graefe's hash division on interned value IDs: the divisor
// table assigns each S value a dense slot, and R is read as its stored
// ID columns (DivisorTable.divideBatches, the kernel the sharded
// division runs per shard) — after a value's first occurrence a row
// costs two array loads, and no row is decoded. Each candidate group
// keeps a bitmap of matched slots and qualifies when the bitmap is full
// (containment) or full with no extra B's (equality). Expected
// O(|R| + |S|).
type Hash struct{}

// Name implements Algorithm.
func (Hash) Name() string { return "hash" }

// Divide implements Algorithm.
func (Hash) Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats) {
	checkInputs(r, s)
	keys, st := NewDivisorTable(s).divideBatches(r.BatchScan(), sem)
	// The kernel counts the dividend; building the table read, probed
	// and holds one entry per divisor tuple.
	st.TuplesRead += s.Len()
	st.Probes += s.Len()
	st.MaxMemoryTuples += s.Len()
	out := rel.NewRelation(1)
	for _, a := range keys {
		out.Add(rel.Tuple{a})
	}
	return out, st
}

// HashStringKey is the pre-interning hash division, kept as the
// string-key reference path: every probe builds a Tuple.Key string
// and hits a map[string]. It computes exactly what Hash computes and
// exists so benchmarks can measure what interning buys on identical
// inputs (see BenchmarkEngineDivisionKeyPath).
type HashStringKey struct{}

// Name implements Algorithm.
func (HashStringKey) Name() string { return "hash-string" }

// Divide implements Algorithm.
func (HashStringKey) Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats) {
	checkInputs(r, s)
	var st Stats
	slot := make(map[string]int, s.Len())
	for _, t := range s.Tuples() {
		st.TuplesRead++
		st.Probes++
		k := rel.Tuple{t[0]}.Key()
		if _, ok := slot[k]; !ok {
			slot[k] = len(slot)
		}
	}
	need := len(slot)
	words := (need + 63) / 64
	groups := make(map[string]*divGroup)
	var order []string
	for _, t := range r.Tuples() {
		st.TuplesRead++
		gk := rel.Tuple{t[0]}.Key()
		st.Probes++
		g := groups[gk]
		if g == nil {
			g = &divGroup{rep: t[0], seen: make([]uint64, words)}
			groups[gk] = g
			order = append(order, gk)
		}
		st.Probes++
		if idx, ok := slot[rel.Tuple{t[1]}.Key()]; ok {
			g.mark(uint32(idx))
		} else {
			g.extras++
		}
	}
	st.MaxMemoryTuples = len(groups) + s.Len() + len(groups)*words
	out := rel.NewRelation(1)
	for _, gk := range order {
		g := groups[gk]
		if g.hits != need {
			continue
		}
		if sem == Equality && g.extras > 0 {
			continue
		}
		out.Add(rel.Tuple{g.rep})
	}
	return out, st
}

// Aggregate is counting division (Graefe's "aggregate division", the
// trick behind the linear grouping expression of Section 5): count the
// B's of each group that are in S, and compare the count to |S|. It is
// Count over the stored ID columns. Expected O(|R| + |S|).
type Aggregate struct{}

// Name implements Algorithm.
func (Aggregate) Name() string { return "aggregate" }

// Divide implements Algorithm.
func (Aggregate) Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats) {
	checkInputs(r, s)
	if s.Len() == 0 {
		// Division by ∅ keeps every group under containment and none
		// under equality; the counting kernel, like the γ-expression,
		// keeps none either way.
		out := rel.NewRelation(1)
		if sem == Containment {
			out = r.Project(1)
		}
		return out, Stats{TuplesRead: r.Len()}
	}
	c := Count(r.BatchScan(), s.BatchScan(), sem, func(int) {})
	out := rel.NewRelationSized(1, len(c.Qualified))
	for _, id := range c.Qualified {
		out.Add(rel.Tuple{c.Dict.Value(id)})
	}
	// One probe per divisor insert and per membership test, plus one per
	// group update: every row under Equality, the matched ones otherwise.
	probes := c.Divisor + c.Rows + c.Matched
	if sem == Equality {
		probes += c.Rows - c.Matched
	}
	return out, Stats{TuplesRead: c.Rows + c.Divisor, Probes: probes, MaxMemoryTuples: c.Divisor + c.Groups}
}

// ClassicRA evaluates division through the pure relational-algebra
// expression π1(R) − π1((π1(R) × S) − R) (or its equality variant),
// the formulation Proposition 26 proves inherently quadratic. Stats
// reports the maximum intermediate size as MaxMemoryTuples and the
// total materialized tuples as TuplesRead.
type ClassicRA struct{}

// Name implements Algorithm.
func (ClassicRA) Name() string { return "classic-ra" }

// Divide implements Algorithm.
func (ClassicRA) Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats) {
	checkInputs(r, s)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	e := ra.DivisionExpr("R", "S")
	if sem == Equality {
		e = ra.EqualityDivisionExpr("R", "S")
	}
	res, tr := ra.EvalTraced(e, d)
	return res, Stats{
		TuplesRead:      tr.TotalTuples,
		MaxMemoryTuples: tr.MaxIntermediate,
		Comparisons:     tr.TotalTuples,
	}
}

// All returns the direct algorithms plus the classical RA expression,
// in presentation order. Parallel variants use the default worker
// count (one per CPU); use AllWorkers to pin it.
func All() []Algorithm { return AllWorkers(0) }

// AllWorkers is All with an explicit worker count for the parallel
// variants (<= 0 means one worker per CPU).
func AllWorkers(workers int) []Algorithm {
	return []Algorithm{
		ClassicRA{}, NestedLoop{}, MergeSort{}, Hash{}, HashStringKey{}, Aggregate{},
		ParallelHash{Workers: workers},
	}
}
