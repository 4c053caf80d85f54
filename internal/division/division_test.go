package division

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radiv/internal/rel"
)

func fig1Person() (*rel.Relation, *rel.Relation) {
	r := rel.NewRelation(2)
	add := func(p, s string) { r.Add(rel.Strs(p, s)) }
	add("An", "headache")
	add("An", "sore throat")
	add("An", "neck pain")
	add("Bob", "headache")
	add("Bob", "sore throat")
	add("Bob", "memory loss")
	add("Bob", "neck pain")
	add("Carol", "headache")
	s := rel.NewRelation(1)
	s.Add(rel.Strs("headache"))
	s.Add(rel.Strs("neck pain"))
	return r, s
}

// TestFigure1AllAlgorithms: every algorithm reproduces the division
// result of Fig. 1: Person ÷ Symptoms = {An, Bob}.
func TestFigure1AllAlgorithms(t *testing.T) {
	r, s := fig1Person()
	want := rel.FromTuples(1, rel.Strs("An"), rel.Strs("Bob"))
	for _, alg := range All() {
		got, _ := alg.Divide(r, s, Containment)
		if !got.Equal(want) {
			t.Errorf("%s: Person ÷ Symptoms = %v, want {An, Bob}", alg.Name(), got)
		}
	}
}

func TestEqualitySemantics(t *testing.T) {
	r := rel.FromRows(2,
		[]int64{1, 10}, []int64{1, 20}, // group 1 = S exactly
		[]int64{2, 10}, []int64{2, 20}, []int64{2, 30}, // superset
		[]int64{3, 10}, // subset
	)
	s := rel.FromTuples(1, rel.Ints(10), rel.Ints(20))
	for _, alg := range All() {
		cont, _ := alg.Divide(r, s, Containment)
		if cont.Len() != 2 || !cont.Contains(rel.Ints(1)) || !cont.Contains(rel.Ints(2)) {
			t.Errorf("%s containment = %v, want {1,2}", alg.Name(), cont)
		}
		eq, _ := alg.Divide(r, s, Equality)
		if eq.Len() != 1 || !eq.Contains(rel.Ints(1)) {
			t.Errorf("%s equality = %v, want {1}", alg.Name(), eq)
		}
	}
}

func TestEmptyDivisor(t *testing.T) {
	r := rel.FromRows(2, []int64{1, 10}, []int64{2, 20})
	s := rel.NewRelation(1)
	for _, alg := range All() {
		cont, _ := alg.Divide(r, s, Containment)
		if cont.Len() != 2 {
			t.Errorf("%s: R ÷ ∅ = %v, want all groups", alg.Name(), cont)
		}
		eq, _ := alg.Divide(r, s, Equality)
		if eq.Len() != 0 {
			t.Errorf("%s: equality R ÷ ∅ = %v, want empty", alg.Name(), eq)
		}
	}
}

func TestEmptyDividend(t *testing.T) {
	r := rel.NewRelation(2)
	s := rel.FromTuples(1, rel.Ints(1))
	for _, alg := range All() {
		for _, sem := range []Semantics{Containment, Equality} {
			got, _ := alg.Divide(r, s, sem)
			if got.Len() != 0 {
				t.Errorf("%s/%s: ∅ ÷ S = %v", alg.Name(), sem, got)
			}
		}
	}
}

func TestDivisorValueNotInR(t *testing.T) {
	r := rel.FromRows(2, []int64{1, 10}, []int64{1, 20})
	s := rel.FromTuples(1, rel.Ints(10), rel.Ints(99))
	for _, alg := range All() {
		got, _ := alg.Divide(r, s, Containment)
		if got.Len() != 0 {
			t.Errorf("%s: group cannot contain 99: %v", alg.Name(), got)
		}
	}
}

// TestAllAlgorithmsAgreeRandom differentially tests every algorithm
// against the reference on random inputs, both semantics.
func TestAllAlgorithmsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		r := rel.NewRelation(2)
		nGroups := 1 + rng.Intn(8)
		domB := 1 + rng.Intn(8)
		for i := 0; i < 40; i++ {
			r.Add(rel.Ints(int64(rng.Intn(nGroups)), int64(rng.Intn(domB))))
		}
		s := rel.NewRelation(1)
		for i := 0; i < rng.Intn(5); i++ {
			s.Add(rel.Ints(int64(rng.Intn(domB + 2))))
		}
		for _, sem := range []Semantics{Containment, Equality} {
			want := Reference(r, s, sem)
			for _, alg := range All() {
				got, _ := alg.Divide(r, s, sem)
				if !got.Equal(want) {
					t.Fatalf("trial %d %s/%s:\ngot %vwant %v\nR:\n%sS:\n%s",
						trial, alg.Name(), sem, got, want, r, s)
				}
			}
		}
	}
}

// TestDivisionMonotonicityProperty: enlarging the divisor can only
// shrink the containment-division result.
func TestDivisionMonotonicityProperty(t *testing.T) {
	f := func(pairs [][2]uint8, divisor []uint8, extra uint8) bool {
		r := rel.NewRelation(2)
		for _, p := range pairs {
			r.Add(rel.Ints(int64(p[0]%5), int64(p[1]%6)))
		}
		s := rel.NewRelation(1)
		for _, v := range divisor {
			s.Add(rel.Ints(int64(v % 6)))
		}
		s2 := s.Clone()
		s2.Add(rel.Ints(int64(extra % 6)))
		small, _ := Hash{}.Divide(r, s, Containment)
		large, _ := Hash{}.Divide(r, s2, Containment)
		// every qualifier for the larger divisor qualifies for the
		// smaller one
		for _, tup := range large.Tuples() {
			if !small.Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEqualityImpliesContainmentProperty: equality division is always
// a subset of containment division.
func TestEqualityImpliesContainmentProperty(t *testing.T) {
	f := func(pairs [][2]uint8, divisor []uint8) bool {
		r := rel.NewRelation(2)
		for _, p := range pairs {
			r.Add(rel.Ints(int64(p[0]%5), int64(p[1]%6)))
		}
		s := rel.NewRelation(1)
		for _, v := range divisor {
			s.Add(rel.Ints(int64(v % 6)))
		}
		eq, _ := MergeSort{}.Divide(r, s, Equality)
		cont, _ := MergeSort{}.Divide(r, s, Containment)
		for _, tup := range eq.Tuples() {
			if !cont.Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCostShapes verifies the asymptotic claims on instrumented
// counters: the classical RA expression materializes Ω(n²) tuples
// while hash and aggregate division stay linear and merge-sort stays
// O(n log n).
func TestCostShapes(t *testing.T) {
	build := func(n int) (*rel.Relation, *rel.Relation) {
		r := rel.NewRelation(2)
		for i := 0; i < n; i++ {
			r.Add(rel.Ints(int64(i), int64(i%16)))
		}
		s := rel.NewRelation(1)
		for i := 0; i < n/4; i++ {
			s.Add(rel.Ints(int64(16 + i))) // mostly outside
		}
		return r, s
	}
	small, smallS := build(64)
	big, bigS := build(256)

	_, raSmall := ClassicRA{}.Divide(small, smallS, Containment)
	_, raBig := ClassicRA{}.Divide(big, bigS, Containment)
	// 4× input ⇒ ~16× intermediate for the quadratic expression.
	if ratio := float64(raBig.MaxMemoryTuples) / float64(raSmall.MaxMemoryTuples); ratio < 8 {
		t.Errorf("classic RA intermediate ratio %.1f, expected ≈16 (quadratic)", ratio)
	}
	_, hSmall := Hash{}.Divide(small, smallS, Containment)
	_, hBig := Hash{}.Divide(big, bigS, Containment)
	if ratio := float64(hBig.Probes) / float64(hSmall.Probes); ratio > 6 {
		t.Errorf("hash division probe ratio %.1f, expected ≈4 (linear)", ratio)
	}
	_, mSmall := MergeSort{}.Divide(small, smallS, Containment)
	_, mBig := MergeSort{}.Divide(big, bigS, Containment)
	if ratio := float64(mBig.Comparisons) / float64(mSmall.Comparisons); ratio > 8 {
		t.Errorf("merge-sort comparison ratio %.1f, expected ≈4·log-factor", ratio)
	}
}

func TestInputValidation(t *testing.T) {
	bad := rel.NewRelation(3)
	s := rel.NewRelation(1)
	for _, alg := range All() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted ternary R", alg.Name())
				}
			}()
			alg.Divide(bad, s, Containment)
		}()
	}
}
