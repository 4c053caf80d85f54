package division

import (
	"math/rand"
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

// TestParallelHashMatchesSequential: the partitioned parallel division
// must produce a byte-identical relation (same String rendering, which
// sorts) and the same Stats as the sequential Hash, across worker
// counts and both semantics, on randomized instances. A group split
// across two partitions would qualify in neither (containment) or in
// one it should not (equality), so this also pins the routing.
func TestParallelHashMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		r := rel.NewRelation(2)
		nGroups := 1 + rng.Intn(40)
		domB := 1 + rng.Intn(12)
		for i := 0; i < 300; i++ {
			r.Add(rel.Ints(int64(rng.Intn(nGroups)), int64(rng.Intn(domB))))
		}
		s := rel.NewRelation(1)
		for i := 0; i < rng.Intn(6); i++ {
			s.Add(rel.Ints(int64(rng.Intn(domB + 2))))
		}
		for _, sem := range []Semantics{Containment, Equality} {
			want, wst := Hash{}.Divide(r, s, sem)
			for _, workers := range []int{1, 2, 3, 4, 8, 9} {
				got, gst := ParallelHash{Workers: workers}.Divide(r, s, sem)
				if !got.Equal(want) {
					t.Fatalf("trial %d workers=%d %s: parallel %vvs sequential %v",
						trial, workers, sem, got, want)
				}
				if got.String() != want.String() {
					t.Fatalf("trial %d workers=%d %s: renderings differ", trial, workers, sem)
				}
				if gst != wst {
					t.Fatalf("trial %d workers=%d %s: stats differ: parallel %+v, sequential %+v", trial, workers, sem, gst, wst)
				}
			}
		}
	}
}

// TestParallelDivisionEquivalenceOnRandomWorkloads: on the generated
// division workloads, the sequential Hash agrees with the reference
// and ParallelHash returns exactly Hash's relation — same tuple set
// and same String rendering — at several worker counts. Parallelism
// may only change wall-clock time, never results.
func TestParallelDivisionEquivalenceOnRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		wl := workload.RandomDivision(seed)
		r, s := wl.Generate()
		for _, sem := range []Semantics{Containment, Equality} {
			want, _ := Hash{}.Divide(r, s, sem)
			if !want.Equal(Reference(r, s, sem)) {
				t.Fatalf("seed %d %s (%s): sequential hash disagrees with reference", seed, sem, wl)
			}
			for _, workers := range []int{1, 2, 4, 9} {
				got, _ := ParallelHash{Workers: workers}.Divide(r, s, sem)
				if !got.Equal(want) || got.String() != want.String() {
					t.Fatalf("seed %d %s workers=%d (%s):\nparallel %vsequential %v",
						seed, sem, workers, wl, got, want)
				}
			}
		}
	}
}

// TestParallelHashDeterministic: repeated runs with the same worker
// count return the same relation in the same order.
func TestParallelHashDeterministic(t *testing.T) {
	r := rel.NewRelation(2)
	for i := 0; i < 500; i++ {
		r.Add(rel.Ints(int64(i%70), int64(i%11)))
	}
	s := rel.FromTuples(1, rel.Ints(1), rel.Ints(2))
	alg := ParallelHash{Workers: 4}
	first, _ := alg.Divide(r, s, Containment)
	for run := 0; run < 5; run++ {
		again, _ := alg.Divide(r, s, Containment)
		at := again.Tuples()
		for i, tup := range first.Tuples() {
			if !tup.Equal(at[i]) {
				t.Fatalf("run %d: position %d is %v, was %v", run, i, at[i], tup)
			}
		}
	}
}
