package setjoin

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"radiv/internal/rel"
)

func fig1Groups() (person, disease []*Group) {
	p := rel.NewRelation(2)
	addP := func(a, b string) { p.Add(rel.Strs(a, b)) }
	addP("An", "headache")
	addP("An", "sore throat")
	addP("An", "neck pain")
	addP("Bob", "headache")
	addP("Bob", "sore throat")
	addP("Bob", "memory loss")
	addP("Bob", "neck pain")
	addP("Carol", "headache")
	d := rel.NewRelation(2)
	addD := func(a, b string) { d.Add(rel.Strs(a, b)) }
	addD("flu", "headache")
	addD("flu", "sore throat")
	addD("Lyme", "headache")
	addD("Lyme", "sore throat")
	addD("Lyme", "memory loss")
	addD("Lyme", "neck pain")
	return Groups(p), Groups(d)
}

// TestFigure1SetContainmentJoin reproduces the set-containment join of
// Fig. 1 with every containment algorithm:
// {(An,flu), (Bob,flu), (Bob,Lyme)}.
func TestFigure1SetContainmentJoin(t *testing.T) {
	person, disease := fig1Groups()
	want := rel.FromTuples(2,
		rel.Strs("An", "flu"),
		rel.Strs("Bob", "flu"),
		rel.Strs("Bob", "Lyme"),
	)
	for _, alg := range ContainmentAlgorithms() {
		got, _ := alg.Join(person, disease)
		if !got.Equal(want) {
			t.Errorf("%s:\n%vwant\n%v", alg.Name(), got, want)
		}
	}
}

func TestGroupsExtraction(t *testing.T) {
	r := rel.FromRows(2, []int64{1, 5}, []int64{1, 3}, []int64{1, 5}, []int64{2, 9})
	gs := Groups(r)
	if len(gs) != 2 {
		t.Fatalf("groups = %d", len(gs))
	}
	if !gs[0].Key.Equal(rel.Int(1)) || gs[0].Len() != 2 || gs[1].Len() != 1 {
		t.Errorf("group 1 = %v with %d elements", gs[0].Key, gs[0].Len())
	}
	// The list's dictionary numbers 5, 3 and 9 in order of first
	// occurrence; a run is ascending in ID, not in value.
	if !slices.Equal(gs[0].ids, []uint32{0, 1}) || !slices.Equal(gs[1].ids, []uint32{2}) {
		t.Errorf("runs %v %v, want [0 1] [2]", gs[0].ids, gs[1].ids)
	}
	if gs[0].dict != gs[1].dict {
		t.Error("the groups of one list do not share an element dictionary")
	}
	if got := decodeAll(gs[:1])[0]; len(got) != 2 || !got[0].Equal(rel.Int(3)) || !got[1].Equal(rel.Int(5)) {
		t.Errorf("group 1 decodes to %v, want (3 5)", rel.Tuple(got))
	}
}

func TestContainsAll(t *testing.T) {
	gs := Groups(rel.FromRows(2,
		[]int64{1, 2}, []int64{1, 4}, []int64{1, 6},
		[]int64{2, 6}, []int64{2, 2},
		[]int64{3, 2}, []int64{3, 5},
	))
	var cmp int
	if !containsAll(gs[0].ids, gs[1].ids, &cmp) {
		t.Error("{2,4,6} ⊇ {2,6} expected")
	}
	if containsAll(gs[0].ids, gs[2].ids, &cmp) {
		t.Error("{2,4,6} ⊉ {2,5}")
	}
	if containsAll(gs[1].ids, gs[0].ids, &cmp) {
		t.Error("smaller set cannot contain larger")
	}
	if containsAll(gs[0].ids, []uint32{gs[1].ids[0], absent}, &cmp) {
		t.Error("a run ending in absent is contained in nothing")
	}
	if cmp == 0 {
		t.Error("comparisons not counted")
	}
}

func TestSignatureMonotone(t *testing.T) {
	// sig(X ∪ Y) must have all bits of sig(Y).
	f := func(xs, ys []uint8) bool {
		r := rel.NewRelation(2)
		for _, x := range xs {
			r.Add(rel.Ints(1, int64(x)))
		}
		for _, y := range ys {
			r.Add(rel.Ints(1, int64(y)))
			r.Add(rel.Ints(2, int64(y)))
		}
		gs := Groups(r)
		if len(gs) < 2 {
			return true
		}
		// gs[0] ⊇ gs[1] by construction, so the signature filter must
		// not prune the pair.
		return gs[1].sig&^gs[0].sig == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randomGroups(rng *rand.Rand, nGroups, dom, maxSet int) []*Group {
	r := rel.NewRelation(2)
	for g := 0; g < nGroups; g++ {
		size := 1 + rng.Intn(maxSet)
		for i := 0; i < size; i++ {
			r.Add(rel.Ints(int64(g), int64(rng.Intn(dom))))
		}
	}
	return Groups(r)
}

// TestAllAlgorithmsAgreeRandom differentially tests each algorithm
// against the reference for its predicate.
func TestAllAlgorithmsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		r := randomGroups(rng, 1+rng.Intn(8), 6, 5)
		s := randomGroups(rng, 1+rng.Intn(8), 6, 4)
		agreeWithReference(t, fmt.Sprintf("trial %d", trial), r, s)
	}
}

// TestSignatureFilterEffective: on a selective workload the signature
// join verifies far fewer pairs than it considers.
func TestSignatureFilterEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	r := randomGroups(rng, 60, 1000, 6)
	s := randomGroups(rng, 60, 1000, 6)
	_, st := SignatureContainment{}.Join(r, s)
	if st.Verifications*4 > st.PairsConsidered {
		t.Errorf("signature filter weak: %d verifications of %d pairs",
			st.Verifications, st.PairsConsidered)
	}
	// And it must agree with the nested loop.
	a, _ := SignatureContainment{}.Join(r, s)
	b, _ := NestedLoopContainment{}.Join(r, s)
	if !a.Equal(b) {
		t.Error("signature join disagrees with nested loop")
	}
}

// TestInvertedIndexCheaperOnSelective: the inverted-index join
// considers far fewer candidate pairs than the quadratic nested loop
// on a low-overlap workload.
func TestInvertedIndexCheaperOnSelective(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := randomGroups(rng, 100, 2000, 5)
	s := randomGroups(rng, 100, 2000, 5)
	_, inv := InvertedIndexContainment{}.Join(r, s)
	_, nl := NestedLoopContainment{}.Join(r, s)
	if inv.PairsConsidered*5 > nl.PairsConsidered {
		t.Errorf("inverted index considered %d pairs, nested loop %d",
			inv.PairsConsidered, nl.PairsConsidered)
	}
}

// TestEqualityJoinCostShape: the hash equality join probes linearly
// while the nested loop verifies quadratically.
func TestEqualityJoinCostShape(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := randomGroups(rng, 200, 50, 4)
	s := randomGroups(rng, 200, 50, 4)
	_, h := HashEquality{}.Join(r, s)
	_, nl := NestedLoopEquality{}.Join(r, s)
	if h.Probes > len(r)+len(s) {
		t.Errorf("hash equality probes %d > linear bound %d", h.Probes, len(r)+len(s))
	}
	if nl.Verifications != len(r)*len(s) {
		t.Errorf("nested loop verified %d pairs, want %d", nl.Verifications, len(r)*len(s))
	}
}

// TestOverlapIsEquijoin: overlap results match element-level equijoin
// pair projection.
func TestOverlapIsEquijoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		r := randomGroups(rng, 1+rng.Intn(6), 5, 4)
		s := randomGroups(rng, 1+rng.Intn(6), 5, 4)
		got, _ := EquijoinOverlap{}.Join(r, s)
		want := Reference(r, s, Overlap)
		if !got.Equal(want) {
			t.Fatalf("trial %d: overlap join mismatch", trial)
		}
	}
}

// TestContainmentAntisymmetryProperty: if both (r ⊇ s) and (s ⊇ r)
// sets hold for a pair, the sets are equal — containment both ways
// equals the equality join.
func TestContainmentAntisymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		r := randomGroups(rng, 1+rng.Intn(6), 4, 4)
		s := randomGroups(rng, 1+rng.Intn(6), 4, 4)
		fwd, _ := NestedLoopContainment{}.Join(r, s)
		bwd, _ := NestedLoopContainment{}.Join(s, r)
		eq, _ := HashEquality{}.Join(r, s)
		// eq = fwd ∩ transpose(bwd)
		both := rel.NewRelation(2)
		for _, t2 := range fwd.Tuples() {
			if bwd.Contains(rel.Tuple{t2[1], t2[0]}) {
				both.Add(t2)
			}
		}
		if !both.Equal(eq) {
			t.Fatalf("trial %d: containment∩containmentᵀ ≠ equality\nboth: %veq: %v", trial, both, eq)
		}
	}
}

func TestGroupsRejectsWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Groups should reject non-binary relations")
		}
	}()
	Groups(rel.NewRelation(3))
}
