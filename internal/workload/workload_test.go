package workload

import (
	"testing"

	"radiv/internal/division"
	"radiv/internal/rel"
	"radiv/internal/setjoin"
)

func TestDivisionWorkloadDeterministic(t *testing.T) {
	w := Division{Groups: 20, GroupSize: 5, Dist: Uniform, DivisorSize: 3, MatchFraction: 0.4, Seed: 7}
	r1, s1 := w.Generate()
	r2, s2 := w.Generate()
	if !r1.Equal(r2) || !s1.Equal(s2) {
		t.Error("same seed produced different workloads")
	}
	if s1.Len() != 3 {
		t.Errorf("|S| = %d, want 3", s1.Len())
	}
}

func TestDivisionWorkloadMatchFraction(t *testing.T) {
	w := Division{Groups: 200, GroupSize: 4, Dist: Fixed, DivisorSize: 4, MatchFraction: 0.5, Seed: 11}
	r, s := w.Generate()
	res := division.Reference(r, s, division.Containment)
	// Roughly half the groups should qualify.
	if res.Len() < 60 || res.Len() > 140 {
		t.Errorf("matched groups = %d of 200, expected ≈100", res.Len())
	}
}

func TestDivisionWorkloadExtremes(t *testing.T) {
	all := Division{Groups: 30, GroupSize: 3, DivisorSize: 2, MatchFraction: 1.0, Seed: 3}
	r, s := all.Generate()
	if got := division.Reference(r, s, division.Containment); got.Len() != 30 {
		t.Errorf("match=1.0: %d of 30 groups qualify", got.Len())
	}
	none := Division{Groups: 30, GroupSize: 3, DivisorSize: 2, MatchFraction: 0.0, Seed: 3}
	r, s = none.Generate()
	if got := division.Reference(r, s, division.Containment); got.Len() != 0 {
		t.Errorf("match=0.0: %d groups qualify, want 0", got.Len())
	}
}

func TestDivisionDatabase(t *testing.T) {
	w := Division{Groups: 10, GroupSize: 3, DivisorSize: 2, MatchFraction: 0.5, Seed: 5}
	d := w.Database()
	if d.Rel("S").Len() != 2 {
		t.Errorf("S = %v", d.Rel("S"))
	}
	if d.Rel("R").Len() == 0 {
		t.Error("R empty")
	}
}

func TestSetJoinWorkload(t *testing.T) {
	w := SetJoin{RGroups: 30, SGroups: 30, MeanSize: 4, Dist: Fixed, Domain: 50, ContainFraction: 0.5, Seed: 9}
	r, s := w.Generate()
	gr, gs := setjoin.Groups(r), setjoin.Groups(s)
	if len(gr) != 30 || len(gs) != 30 {
		t.Fatalf("groups: %d, %d", len(gr), len(gs))
	}
	res, _ := setjoin.NestedLoopContainment{}.Join(gr, gs)
	// At least the planted subsets should match.
	if res.Len() < 8 {
		t.Errorf("only %d containment pairs; planting 50%% should give more", res.Len())
	}
	// Determinism.
	r2, s2 := w.Generate()
	if !r.Equal(r2) || !s.Equal(s2) {
		t.Error("same seed produced different set-join workloads")
	}
}

func TestSizeDistributions(t *testing.T) {
	for _, dist := range []SizeDist{Fixed, Uniform, Zipf} {
		w := SetJoin{RGroups: 50, SGroups: 1, MeanSize: 6, Dist: dist, Domain: 1000, Seed: 21}
		r, _ := w.Generate()
		gs := setjoin.Groups(r)
		if len(gs) != 50 {
			t.Fatalf("%s: %d groups", dist, len(gs))
		}
		total := 0
		for _, g := range gs {
			if g.Len() == 0 {
				t.Errorf("%s: empty group", dist)
			}
			total += g.Len()
		}
		if dist == Fixed && total > 50*6 {
			t.Errorf("fixed dist produced %d elements", total)
		}
	}
}

func TestBeerDatabase(t *testing.T) {
	d := BeerDatabase(3, 10, 5)
	if d.Rel("Likes").Len() == 0 || d.Rel("Serves").Len() == 0 || d.Rel("Visits").Len() == 0 {
		t.Error("beer database missing tuples")
	}
	d2 := BeerDatabase(3, 10, 5)
	if !d.Equal(d2) {
		t.Error("beer database not deterministic")
	}
	var _ rel.Schema = d.Schema()
}
