package core

import (
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/stats"
)

// linearCorpus returns RA expressions that are linear (every join is
// semijoin-shaped or otherwise reconstruction-friendly).
func linearCorpus() []ra.Expr {
	r2 := func() ra.Expr { return ra.R("R", 2) }
	s1 := func() ra.Expr { return ra.R("S", 1) }
	t2 := func() ra.Expr { return ra.R("T", 2) }
	return []ra.Expr{
		// Plain relation and boolean combinations.
		r2(),
		ra.NewUnion(r2(), t2()),
		ra.NewDiff(r2(), t2()),
		ra.NewProject([]int{2, 1}, r2()),
		ra.NewSelect(1, ra.OpEq, 2, r2()),
		ra.NewSelect(1, ra.OpLt, 2, r2()),
		ra.NewSelectConst(1, rel.Int(3), r2()),
		ra.NewConstTag(rel.Int(9), s1()),
		// Semijoin shape: R ⋈2=1 π1(S-as-set) projected back.
		ra.EquiSemijoinExpr(r2(), ra.Eq(2, 1), s1()),
		// Key-key join: both sides fully constrained.
		ra.NewJoin(ra.NewProject([]int{1}, r2()), ra.Eq(1, 1), s1()),
		// Join where one side is a single constant-pinned column.
		ra.NewJoin(r2(), ra.Eq(2, 1), ra.NewSelectConst(1, rel.Int(4), s1())),
		// Join fully constrained on both columns of T.
		ra.NewJoin(r2(), ra.EqAll([2]int{1, 1}, [2]int{2, 2}), t2()),
		// Nested: (R ⋉ S) ∪ (T σ-filtered).
		ra.NewUnion(
			ra.EquiSemijoinExpr(r2(), ra.Eq(2, 1), s1()),
			ra.NewSelect(1, ra.OpLt, 2, t2()),
		),
		// Join against a tagged constant column: S × {(7)} is linear
		// because the right side has one reconstructible-from-constants
		// column.
		ra.NewJoin(r2(), ra.Eq(2, 1), ra.NewProject([]int{2}, ra.NewConstTag(rel.Int(7), s1()))),
	}
}

// quadraticCorpus returns RA expressions that are quadratic.
func quadraticCorpus() []ra.Expr {
	r2 := func() ra.Expr { return ra.R("R", 2) }
	s1 := func() ra.Expr { return ra.R("S", 1) }
	t2 := func() ra.Expr { return ra.R("T", 2) }
	return []ra.Expr{
		ra.Product(s1(), s1()),
		ra.Product(r2(), t2()),
		ra.NewJoin(r2(), ra.Eq(1, 1), t2()), // fk-fk join, free seconds
		ra.NewJoin(r2(), ra.Lt(2, 1), t2()), // order join
		ra.DivisionExpr("R", "S"),           // the paper's protagonist
		ra.SetContainmentJoinExpr("R", "T"), // set join
		ra.NewProject([]int{1}, ra.Product(r2(), t2())),
	}
}

// TestLinearizeEquivalence differentially verifies Theorem 18's
// construction: for every linear expression, the SA= translation
// computes the same query on every seed database.
func TestLinearizeEquivalence(t *testing.T) {
	for i, e := range linearCorpus() {
		lin, err := Linearize(e)
		if err != nil {
			t.Fatalf("expr %d (%s): %v", i, e, err)
		}
		if !sa.IsEquiOnly(lin) {
			t.Errorf("expr %d: translation is not SA= : %s", i, lin)
		}
		for si, d := range DefaultSeeds(e, 25) {
			want := ra.Eval(e, d)
			got := sa.Eval(lin, d)
			if !want.Equal(got) {
				t.Fatalf("expr %d (%s), seed %d: RA ≠ SA=\nRA:  %vSA=: %vDB:\n%s",
					i, e, si, want, got, d)
			}
		}
	}
}

// TestLinearizeStaysLinear verifies the translated expressions have
// linear intermediate sizes (the semijoin algebra's defining
// property): no intermediate exceeds |D| plus the constant overhead.
func TestLinearizeStaysLinear(t *testing.T) {
	for i, e := range linearCorpus() {
		lin, err := Linearize(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range DefaultSeeds(e, 10) {
			_, tr := sa.EvalTraced(lin, d)
			if tr.MaxIntermediate > d.Size()+1 {
				t.Errorf("expr %d: SA intermediate %d on |D| = %d", i, tr.MaxIntermediate, d.Size())
			}
		}
	}
}

// TestClassifyDichotomy runs the classifier over both corpora: linear
// expressions come back Linear with a verified SA= translation,
// quadratic ones come back Quadratic with a Lemma 24 witness.
func TestClassifyDichotomy(t *testing.T) {
	for i, e := range linearCorpus() {
		v, err := Classify(e, nil)
		if err != nil {
			t.Fatalf("linear expr %d (%s): %v", i, e, err)
		}
		if v.Class != Linear {
			t.Errorf("linear expr %d (%s) classified %s (witness %v)", i, e, v.Class, v.Witness)
		}
		if v.SA == nil {
			t.Errorf("linear expr %d: no SA= translation returned", i)
		}
	}
	for i, e := range quadraticCorpus() {
		v, err := Classify(e, nil)
		if err != nil {
			t.Fatalf("quadratic expr %d (%s): %v", i, e, err)
		}
		if v.Class != Quadratic {
			t.Errorf("quadratic expr %d (%s) classified %s", i, e, v.Class)
		}
		if v.Witness == nil {
			t.Errorf("quadratic expr %d: no witness returned", i)
		}
	}
}

// TestClassifiedWitnessesPump confirms every Quadratic verdict's
// witness actually pumps to Ω(n²) — the soundness half of the
// dichotomy experiment.
func TestClassifiedWitnessesPump(t *testing.T) {
	for i, e := range quadraticCorpus() {
		v, err := Classify(e, nil)
		if err != nil || v.Class != Quadratic {
			t.Fatalf("expr %d: %v %v", i, v, err)
		}
		p, err := NewPump(v.Witness)
		if err != nil {
			t.Fatalf("expr %d: pump: %v", i, err)
		}
		for _, pt := range p.Measure([]int{2, 5, 9}) {
			if pt.JoinOutput < pt.N*pt.N {
				t.Errorf("expr %d n=%d: join output %d < n²", i, pt.N, pt.JoinOutput)
			}
			if pt.DatabaseSize > 2*v.Witness.D.Size()*pt.N {
				t.Errorf("expr %d n=%d: |Dn| = %d not linear", i, pt.N, pt.DatabaseSize)
			}
		}
	}
}

// TestLinearizeDivisionDisagrees documents the other half of
// Theorem 18: applying the construction to a quadratic expression
// (division) yields an SA= expression that cannot be equivalent —
// Proposition 26 says none is. The classifier must therefore find a
// witness rather than accept the translation.
func TestLinearizeDivisionDisagrees(t *testing.T) {
	e := ra.DivisionExpr("R", "S")
	lin, err := Linearize(e)
	if err != nil {
		t.Fatal(err)
	}
	// On the Fig. 5 database A the translation must disagree with
	// division somewhere in the seed family; check the canonical pair.
	a := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	a.AddInts("R", 1, 7)
	a.AddInts("R", 1, 8)
	a.AddInts("R", 2, 7)
	a.AddInts("R", 2, 8)
	a.AddInts("S", 7)
	a.AddInts("S", 8)
	want := ra.Eval(e, a)
	got := sa.Eval(lin, a)
	if want.Equal(got) {
		// Not a failure of the library per se, but the Fig. 5 database
		// should already separate them; if not, the seeds must.
		found := false
		for _, d := range DefaultSeeds(e, 40) {
			if !ra.Eval(e, d).Equal(sa.Eval(lin, d)) {
				found = true
				break
			}
		}
		if !found {
			t.Error("division's linearization agreed everywhere — construction too strong?")
		}
	}
}

// TestLinearizeClosureLimit: an expression whose constants span a huge
// finite interval is rejected.
func TestLinearizeClosureLimit(t *testing.T) {
	e := ra.NewJoin(
		ra.NewSelectConst(1, rel.Int(0), ra.R("R", 2)),
		ra.Eq(2, 1),
		ra.NewSelectConst(1, rel.Int(1_000_000), ra.R("S", 2)),
	)
	if _, err := Linearize(e); err == nil {
		t.Error("million-value constant interval should be rejected")
	}
}

// growthGenerators returns database families used to measure c(E)
// empirically. Because c(E) is a maximum over all databases of a given
// size, the measured exponent for an expression is the maximum over
// the families.
func growthGenerators() []func(scale int) *rel.Database {
	schema := rel.NewSchema(map[string]int{"R": 2, "S": 1, "T": 2})
	spread := func(scale int) *rel.Database {
		d := rel.NewDatabase(schema)
		for i := 0; i < scale; i++ {
			d.AddInts("R", int64(i), int64(i%7))
			d.AddInts("T", int64(i), int64(i%7))
			d.AddInts("S", int64(3*i))
		}
		return d
	}
	skew := func(scale int) *rel.Database {
		d := rel.NewDatabase(schema)
		for i := 0; i < scale; i++ {
			d.AddInts("R", int64(i%4), int64(i))
			d.AddInts("T", int64(i%4), int64(i))
			d.AddInts("S", int64(i))
		}
		return d
	}
	diagonal := func(scale int) *rel.Database {
		d := rel.NewDatabase(schema)
		for i := 0; i < scale; i++ {
			d.AddInts("R", int64(i), int64(i))
			d.AddInts("T", int64(scale-i), int64(i))
			d.AddInts("S", int64(i))
		}
		return d
	}
	return []func(int) *rel.Database{spread, skew, diagonal}
}

// maxExponent measures the growth exponent of max-intermediate size
// over all generator families.
func maxExponent(e ra.Expr, scales []int) float64 {
	max := 0.0
	for _, gen := range growthGenerators() {
		var sizes, peaks []float64
		for _, scale := range scales {
			d := gen(scale)
			_, tr := ra.EvalTraced(e, d)
			sizes = append(sizes, float64(d.Size()))
			peaks = append(peaks, float64(tr.MaxIntermediate))
		}
		if p := stats.GrowthExponent(sizes, peaks); p > max {
			max = p
		}
	}
	return max
}

// TestGrowthExponentGap is the empirical Theorem 17: growth exponents
// of the corpus cluster at ≤ ~1 and ≥ ~2 with nothing in between.
func TestGrowthExponentGap(t *testing.T) {
	scales := []int{16, 32, 64, 128}
	for i, e := range linearCorpus() {
		if p := maxExponent(e, scales); p > 1.35 {
			t.Errorf("linear expr %d (%s): exponent %.2f", i, e, p)
		}
	}
	for i, e := range quadraticCorpus() {
		p := maxExponent(e, scales)
		if p < 1.65 {
			t.Errorf("quadratic expr %d (%s): exponent %.2f — in the forbidden gap", i, e, p)
		}
	}
}
