package division

import (
	"math/rand"
	"testing"

	"radiv/internal/rel"
)

// TestParallelHashMatchesSequential: the partitioned parallel division
// must produce a byte-identical relation (same String rendering, which
// sorts) to the sequential algorithms, across worker counts and both
// semantics, on randomized instances.
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
			want, _ := Hash{}.Divide(r, s, sem)
			for _, workers := range []int{1, 2, 3, 8} {
				got, _ := ParallelHash{Workers: workers}.Divide(r, s, sem)
				if !got.Equal(want) {
					t.Fatalf("trial %d workers=%d %s: parallel %vvs sequential %v",
						trial, workers, sem, got, want)
				}
				if got.String() != want.String() {
					t.Fatalf("trial %d workers=%d %s: renderings differ", trial, workers, sem)
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

// TestHashStringKeyMatchesHash pins the interned path — the batch
// kernel over R's ID columns — to the string-key reference path, which
// still walks decoded rows, on the same instances: same result in the
// same emission order, and the same Stats to the last probe.
func TestHashStringKeyMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		r := rel.NewRelation(2)
		for i := 0; i < 120; i++ {
			r.Add(rel.Ints(int64(rng.Intn(15)), int64(rng.Intn(9))))
		}
		s := rel.NewRelation(1)
		for i := 0; i < rng.Intn(5); i++ {
			s.Add(rel.Ints(int64(rng.Intn(11))))
		}
		for _, sem := range []Semantics{Containment, Equality} {
			a, ast := Hash{}.Divide(r, s, sem)
			b, bst := HashStringKey{}.Divide(r, s, sem)
			if !a.Equal(b) {
				t.Fatalf("trial %d %s: interned %vstring %v", trial, sem, a, b)
			}
			for i, tup := range b.Tuples() {
				if !a.At(i).Equal(tup) {
					t.Fatalf("trial %d %s: emission order differs at %d: interned %v, string %v", trial, sem, i, a.At(i), tup)
				}
			}
			if ast != bst {
				t.Fatalf("trial %d %s: stats differ: interned %+v, string %+v", trial, sem, ast, bst)
			}
		}
	}
}
