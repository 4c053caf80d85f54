package sa

import (
	"math/rand"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

func beerDB() *rel.Database {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{
		"Likes": 2, "Serves": 2, "Visits": 2,
	}))
	// Drinkers: alex visits pareto (serves westmalle, liked by alex)
	// and bart visits qwerty, which serves only unliked beer.
	d.AddStrs("Likes", "alex", "westmalle")
	d.AddStrs("Serves", "pareto", "westmalle")
	d.AddStrs("Serves", "qwerty", "stella")
	d.AddStrs("Visits", "alex", "pareto")
	d.AddStrs("Visits", "bart", "qwerty")
	return d
}

// TestExample3LousyBar evaluates the paper's Example 3 SA= expression.
func TestExample3LousyBar(t *testing.T) {
	d := beerDB()
	e := LousyBarExpr()
	if !IsEquiOnly(e) {
		t.Error("Example 3 expression should be in SA=")
	}
	got := Eval(e, d)
	want := rel.FromTuples(1, rel.Strs("bart"))
	if !got.Equal(want) {
		t.Errorf("lousy-bar drinkers = %v, want {bart}", got)
	}
}

func TestSemijoinBasics(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	d.AddInts("R", 1, 10)
	d.AddInts("R", 2, 20)
	d.AddInts("R", 3, 30)
	d.AddInts("S", 10)
	d.AddInts("S", 30)
	got := Eval(NewSemijoin(R("R", 2), ra.Eq(2, 1), R("S", 1)), d)
	if got.Len() != 2 || !got.Contains(rel.Ints(1, 10)) || !got.Contains(rel.Ints(3, 30)) {
		t.Errorf("semijoin = %v", got)
	}
	anti := Eval(NewAntijoin(R("R", 2), ra.Eq(2, 1), R("S", 1)), d)
	if anti.Len() != 1 || !anti.Contains(rel.Ints(2, 20)) {
		t.Errorf("antijoin = %v", anti)
	}
}

func TestSemijoinThetaNonEqui(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 1, "S": 1}))
	for i := int64(1); i <= 5; i++ {
		d.AddInts("R", i)
	}
	d.AddInts("S", 3)
	lt := Eval(NewSemijoin(R("R", 1), ra.Lt(1, 1), R("S", 1)), d)
	if lt.Len() != 2 || !lt.Contains(rel.Ints(1)) || !lt.Contains(rel.Ints(2)) {
		t.Errorf("R ⋉1<1 S = %v", lt)
	}
	mixed := Eval(NewSemijoin(R("R", 1), ra.Ne(1, 1), R("S", 1)), d)
	if mixed.Len() != 4 {
		t.Errorf("R ⋉1≠1 S = %v", mixed)
	}
}

func TestSemijoinMixedEqResidual(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	d.AddInts("R", 1, 5)
	d.AddInts("R", 2, 5)
	d.AddInts("S", 5, 1)
	// condition: 2=1 (B=C) and 1<2 (A < D). For R(1,5): S(5,1) has D=1, 1<1 false.
	// For R(2,5): 2<1 false. Add S(5,9): then both qualify.
	c := ra.Eq(2, 1).And(ra.A(1, ra.OpLt, 2))
	got := Eval(NewSemijoin(R("R", 2), c, R("S", 2)), d)
	if got.Len() != 0 {
		t.Errorf("mixed semijoin = %v, want empty", got)
	}
	d.AddInts("S", 5, 9)
	got = Eval(NewSemijoin(R("R", 2), c, R("S", 2)), d)
	if got.Len() != 2 {
		t.Errorf("mixed semijoin after insert = %v", got)
	}
}

func TestSAOperatorsMirrorRA(t *testing.T) {
	// Union/diff/project/select/tag behave like their RA counterparts.
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"P": 2}))
	d.AddInts("P", 1, 1)
	d.AddInts("P", 1, 2)
	d.AddInts("P", 3, 2)
	p := R("P", 2)
	if got := Eval(NewSelect(1, ra.OpEq, 2, p), d); got.Len() != 1 {
		t.Errorf("σ1=2 = %v", got)
	}
	if got := Eval(NewSelectConst(2, rel.Int(2), p), d); got.Len() != 2 {
		t.Errorf("σ2='2' = %v", got)
	}
	if got := Eval(NewProject([]int{2, 2}, p), d); got.Arity() != 2 || got.Len() != 2 {
		t.Errorf("π2,2 = %v", got)
	}
	if got := Eval(NewConstTag(rel.Int(0), p), d); got.Arity() != 3 || got.Len() != 3 {
		t.Errorf("τ0 = %v", got)
	}
	if got := Eval(NewUnion(p, p), d); got.Len() != 3 {
		t.Errorf("P ∪ P = %v", got)
	}
	if got := Eval(NewDiff(p, NewSelect(1, ra.OpEq, 2, p)), d); got.Len() != 2 {
		t.Errorf("P − σ = %v", got)
	}
}

// TestLinearityInvariant checks the defining property of SA: every
// intermediate result's cardinality is bounded by the database size
// (tags and unions can only combine existing tuples, never multiply
// them).
func TestLinearityInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{
			"Likes": 2, "Serves": 2, "Visits": 2,
		}))
		n := 5 + rng.Intn(50)
		for i := 0; i < n; i++ {
			d.AddInts("Likes", int64(rng.Intn(10)), int64(rng.Intn(10)))
			d.AddInts("Serves", int64(rng.Intn(10)), int64(rng.Intn(10)))
			d.AddInts("Visits", int64(rng.Intn(10)), int64(rng.Intn(10)))
		}
		_, tr := EvalTraced(LousyBarExpr(), d)
		if tr.MaxIntermediate > d.Size() {
			t.Fatalf("SA intermediate %d exceeds |D| = %d", tr.MaxIntermediate, d.Size())
		}
	}
}

// TestToRAEquivalence checks the SA → RA translation on random
// databases: the RA image computes the same query.
func TestToRAEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	exprs := []Expr{
		LousyBarExpr(),
		NewSemijoin(R("Visits", 2), ra.Eq(2, 1), NewProject([]int{1}, R("Serves", 2))),
		NewAntijoin(R("Likes", 2), ra.Eq(1, 1), R("Visits", 2)),
		NewSemijoin(R("Likes", 2), ra.Lt(2, 2), R("Serves", 2)),
		NewUnion(R("Likes", 2), NewSemijoin(R("Serves", 2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}), R("Likes", 2))),
	}
	for trial := 0; trial < 25; trial++ {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{
			"Likes": 2, "Serves": 2, "Visits": 2,
		}))
		for i := 0; i < 20; i++ {
			d.AddInts("Likes", int64(rng.Intn(6)), int64(rng.Intn(6)))
			d.AddInts("Serves", int64(rng.Intn(6)), int64(rng.Intn(6)))
			d.AddInts("Visits", int64(rng.Intn(6)), int64(rng.Intn(6)))
		}
		for _, e := range exprs {
			want := Eval(e, d)
			got := ra.Eval(ToRA(e), d)
			if !want.Equal(got) {
				t.Fatalf("trial %d: ToRA(%s) disagrees:\nSA: %vRA: %v", trial, e, want, got)
			}
		}
	}
}

// TestToRAEquiSemijoinLinear verifies that the RA image of an
// equi-semijoin expression remains linear (the rewriting after
// Theorem 18).
func TestToRAEquiSemijoinLinear(t *testing.T) {
	e := LousyBarExpr()
	raExpr := ToRA(e)
	d := beerDB()
	for i := 0; i < 200; i++ {
		d.AddInts("Likes", int64(i), int64(i%17))
		d.AddInts("Serves", int64(i%13), int64(i%17))
		d.AddInts("Visits", int64(i), int64(i%13))
	}
	_, tr := ra.EvalTraced(raExpr, d)
	if tr.MaxIntermediate > 2*d.Size() {
		t.Errorf("linearized semijoin blew up: max %d vs |D| %d", tr.MaxIntermediate, d.Size())
	}
}

func TestIsEquiOnlyAndMetadata(t *testing.T) {
	e := NewSemijoin(R("R", 1), ra.Lt(1, 1), R("S", 1))
	if IsEquiOnly(e) {
		t.Error("θ-semijoin with < reported as SA=")
	}
	anti := NewAntijoin(R("R", 1), ra.Gt(1, 1), R("S", 1))
	if IsEquiOnly(anti) {
		t.Error("antijoin with > reported as SA=")
	}
	cs := Constants(NewSelectConst(1, rel.Str("x"), NewConstTag(rel.Int(3), R("R", 0))))
	if cs.Len() != 2 {
		t.Errorf("Constants = %v", cs.Values())
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("union", func() { NewUnion(R("R", 1), R("S", 2)) })
	mustPanic("diff", func() { NewDiff(R("R", 1), R("S", 2)) })
	mustPanic("project", func() { NewProject([]int{2}, R("R", 1)) })
	mustPanic("select", func() { NewSelect(0, ra.OpEq, 1, R("R", 1)) })
	mustPanic("selectconst", func() { NewSelectConst(2, rel.Int(1), R("R", 1)) })
	mustPanic("semijoin", func() { NewSemijoin(R("R", 1), ra.Eq(2, 1), R("S", 1)) })
	mustPanic("antijoin", func() { NewAntijoin(R("R", 1), ra.Eq(1, 2), R("S", 1)) })
}
