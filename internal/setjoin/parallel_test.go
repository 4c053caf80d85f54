package setjoin

import (
	"math/rand"
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

func randomGroupRelation(rng *rand.Rand, groups, domain, size int) *rel.Relation {
	r := rel.NewRelation(2)
	for g := 0; g < groups; g++ {
		n := 1 + rng.Intn(size)
		for i := 0; i < n; i++ {
			r.Add(rel.Ints(int64(g), int64(rng.Intn(domain))))
		}
	}
	return r
}

// TestParallelContainmentMatchesSequential: the sharded signature join
// must return a byte-identical relation to the sequential signature
// join — same tuple set AND same insertion order — for every worker
// count, on randomized inputs.
func TestParallelContainmentMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		r := Groups(randomGroupRelation(rng, 1+rng.Intn(40), 20, 6))
		s := Groups(randomGroupRelation(rng, 1+rng.Intn(40), 20, 4))
		want, wantSt := SignatureContainment{}.Join(r, s)
		for _, workers := range []int{1, 2, 5, 16} {
			got, gotSt := ParallelSignatureContainment{Workers: workers}.Join(r, s)
			if !got.Equal(want) {
				t.Fatalf("trial %d workers=%d: sets differ\ngot %vwant %v", trial, workers, got, want)
			}
			gt, wt := got.Tuples(), want.Tuples()
			for i := range wt {
				if !gt[i].Equal(wt[i]) {
					t.Fatalf("trial %d workers=%d: order differs at %d: %v vs %v",
						trial, workers, i, gt[i], wt[i])
				}
			}
			if gotSt.PairsConsidered != wantSt.PairsConsidered || gotSt.Verifications != wantSt.Verifications {
				t.Fatalf("trial %d workers=%d: stats differ: %+v vs %+v", trial, workers, gotSt, wantSt)
			}
		}
	}
}

// TestParallelEqualityMatchesSequential does the same for the equality
// join, including against the naive reference.
func TestParallelEqualityMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		// Tiny domains make set-equality collisions likely.
		r := Groups(randomGroupRelation(rng, 1+rng.Intn(30), 4, 3))
		s := Groups(randomGroupRelation(rng, 1+rng.Intn(30), 4, 3))
		want, _ := HashEquality{}.Join(r, s)
		ref := Reference(r, s, Equal)
		if !want.Equal(ref) {
			t.Fatalf("trial %d: sequential hash-equality disagrees with reference", trial)
		}
		for _, workers := range []int{1, 3, 8} {
			got, _ := ParallelHashEquality{Workers: workers}.Join(r, s)
			if !got.Equal(want) {
				t.Fatalf("trial %d workers=%d: %vvs %v", trial, workers, got, want)
			}
			gt, wt := got.Tuples(), want.Tuples()
			for i := range wt {
				if !gt[i].Equal(wt[i]) {
					t.Fatalf("trial %d workers=%d: order differs at %d", trial, workers, i)
				}
			}
		}
	}
}

// TestParallelEmptySides: degenerate inputs must not deadlock or
// mis-shard.
func TestParallelEmptySides(t *testing.T) {
	empty := Groups(rel.NewRelation(2))
	one := Groups(rel.FromRows(2, []int64{1, 5}))
	for _, alg := range []Algorithm{
		ParallelSignatureContainment{Workers: 4},
		ParallelHashEquality{Workers: 4},
	} {
		if out, _ := alg.Join(empty, one); out.Len() != 0 {
			t.Errorf("%s: ∅ ⋈ S = %v", alg.Name(), out)
		}
		if out, _ := alg.Join(one, empty); out.Len() != 0 {
			t.Errorf("%s: R ⋈ ∅ = %v", alg.Name(), out)
		}
		if out, _ := alg.Join(one, one); out.Len() != 1 {
			t.Errorf("%s: singleton self-join = %v", alg.Name(), out)
		}
	}
}

func TestChunkRanges(t *testing.T) {
	for _, tc := range []struct{ n, parts, want int }{
		{10, 3, 3}, {3, 10, 3}, {0, 4, 0}, {5, 1, 1}, {7, 0, 1},
	} {
		chunks := chunkRanges(tc.n, tc.parts)
		if len(chunks) != tc.want {
			t.Errorf("chunkRanges(%d, %d) has %d chunks, want %d", tc.n, tc.parts, len(chunks), tc.want)
		}
		covered := 0
		prev := 0
		for _, c := range chunks {
			if c[0] != prev {
				t.Errorf("chunkRanges(%d, %d): gap before %v", tc.n, tc.parts, c)
			}
			covered += c[1] - c[0]
			prev = c[1]
		}
		if covered != tc.n {
			t.Errorf("chunkRanges(%d, %d) covers %d items", tc.n, tc.parts, covered)
		}
	}
}

// TestParallelSetJoinEquivalenceOnRandomWorkloads: on the generated
// set-join workloads, the sequential signature join agrees with the
// reference, and both parallel joins return exactly their sequential
// twin's relation — same tuple set and same String rendering — at
// several worker counts.
func TestParallelSetJoinEquivalenceOnRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		wl := workload.RandomSetJoin(seed)
		r, s := wl.Generate()
		gr, gs := Groups(r), Groups(s)

		wantC, _ := SignatureContainment{}.Join(gr, gs)
		if ref := Reference(gr, gs, Containment); !wantC.Equal(ref) {
			t.Fatalf("seed %d (%s): sequential signature disagrees with reference", seed, wl)
		}
		wantE, _ := HashEquality{}.Join(gr, gs)
		for _, workers := range []int{1, 2, 4, 9} {
			gotC, _ := ParallelSignatureContainment{Workers: workers}.Join(gr, gs)
			if !gotC.Equal(wantC) || gotC.String() != wantC.String() {
				t.Fatalf("seed %d workers=%d (%s): containment differs", seed, workers, wl)
			}
			gotE, _ := ParallelHashEquality{Workers: workers}.Join(gr, gs)
			if !gotE.Equal(wantE) || gotE.String() != wantE.String() {
				t.Fatalf("seed %d workers=%d (%s): equality differs", seed, workers, wl)
			}
		}
	}
}
