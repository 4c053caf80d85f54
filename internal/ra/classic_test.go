package ra

import (
	"testing"

	"radiv/internal/rel"
	"radiv/internal/stats"
)

// fig1Database is the medical database of Fig. 1.
func fig1Database() *rel.Database {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{
		"Person": 2, "Disease": 2, "Symptoms": 1,
	}))
	d.AddStrs("Person", "An", "headache")
	d.AddStrs("Person", "An", "sore throat")
	d.AddStrs("Person", "An", "neck pain")
	d.AddStrs("Person", "Bob", "headache")
	d.AddStrs("Person", "Bob", "sore throat")
	d.AddStrs("Person", "Bob", "memory loss")
	d.AddStrs("Person", "Bob", "neck pain")
	d.AddStrs("Person", "Carol", "headache")
	d.AddStrs("Disease", "flu", "headache")
	d.AddStrs("Disease", "flu", "sore throat")
	d.AddStrs("Disease", "Lyme", "headache")
	d.AddStrs("Disease", "Lyme", "sore throat")
	d.AddStrs("Disease", "Lyme", "memory loss")
	d.AddStrs("Disease", "Lyme", "neck pain")
	d.AddStrs("Symptoms", "headache")
	d.AddStrs("Symptoms", "neck pain")
	return d
}

// TestFigure1DivisionRA reproduces the division result of Fig. 1:
// Person ÷ Symptoms = {An, Bob} — via the classical RA expression.
func TestFigure1DivisionRA(t *testing.T) {
	d := fig1Database()
	res := Eval(DivisionExpr("Person", "Symptoms"), d)
	want := rel.FromTuples(1, rel.Strs("An"), rel.Strs("Bob"))
	if !res.Equal(want) {
		t.Errorf("Person ÷ Symptoms = %v, want {An, Bob}", res)
	}
}

// TestFigure1SetContainmentJoinRA reproduces the set-containment join
// of Fig. 1: Person ⋈⊇ Disease = {(An,flu), (Bob,flu), (Bob,Lyme)}.
func TestFigure1SetContainmentJoinRA(t *testing.T) {
	d := fig1Database()
	res := Eval(SetContainmentJoinExpr("Person", "Disease"), d)
	want := rel.FromTuples(2,
		rel.Strs("An", "flu"),
		rel.Strs("Bob", "flu"),
		rel.Strs("Bob", "Lyme"),
	)
	if !res.Equal(want) {
		t.Errorf("set-containment join =\n%vwant\n%v", res, want)
	}
}

func TestEqualityDivisionExpr(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	// group 1: {10,20} (equal to S) — qualifies
	// group 2: {10,20,30} (superset) — containment yes, equality no
	// group 3: {10} (subset) — neither
	d.AddInts("R", 1, 10)
	d.AddInts("R", 1, 20)
	d.AddInts("R", 2, 10)
	d.AddInts("R", 2, 20)
	d.AddInts("R", 2, 30)
	d.AddInts("R", 3, 10)
	d.AddInts("S", 10)
	d.AddInts("S", 20)
	cont := Eval(DivisionExpr("R", "S"), d)
	if cont.Len() != 2 || !cont.Contains(rel.Ints(1)) || !cont.Contains(rel.Ints(2)) {
		t.Errorf("containment division = %v", cont)
	}
	eq := Eval(EqualityDivisionExpr("R", "S"), d)
	if eq.Len() != 1 || !eq.Contains(rel.Ints(1)) {
		t.Errorf("equality division = %v", eq)
	}
}

func TestSetEqualityJoinExpr(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	// R groups: 1 -> {10,20}, 2 -> {10}
	d.AddInts("R", 1, 10)
	d.AddInts("R", 1, 20)
	d.AddInts("R", 2, 10)
	// S groups: 5 -> {10,20}, 6 -> {10,20,30}, 7 -> {10}
	d.AddInts("S", 5, 10)
	d.AddInts("S", 5, 20)
	d.AddInts("S", 6, 10)
	d.AddInts("S", 6, 20)
	d.AddInts("S", 6, 30)
	d.AddInts("S", 7, 10)
	got := Eval(SetEqualityJoinExpr("R", "S"), d)
	want := rel.FromTuples(2, rel.Ints(1, 5), rel.Ints(2, 7))
	if !got.Equal(want) {
		t.Errorf("set-equality join = %v, want %v", got, want)
	}
}

func TestEquiSemijoinExprLinearShape(t *testing.T) {
	// R ⋉2=1 S expressed in RA should match the direct semantics and
	// stay linear: max intermediate ≤ |R| + |S| here.
	d := smallDB()
	e := EquiSemijoinExpr(R("R", 2), Eq(2, 1), R("S", 1))
	res, tr := EvalTraced(e, d)
	if res.Len() != 3 {
		t.Errorf("R ⋉ S = %v", res)
	}
	if tr.MaxIntermediate > d.Size() {
		t.Errorf("semijoin expression not linear on this input: max %d > |D| %d",
			tr.MaxIntermediate, d.Size())
	}
}

// TestDivisionExprQuadraticGrowth checks empirically that the classical
// division expression has a quadratically growing intermediate — the
// phenomenon Proposition 26 proves unavoidable.
func TestDivisionExprQuadraticGrowth(t *testing.T) {
	gen := func(scale int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for i := 0; i < scale; i++ {
			d.AddInts("R", int64(i), int64(i%7))
		}
		for i := 0; i < scale; i++ {
			d.AddInts("S", int64(i*3)) // mostly outside R's B-values
		}
		return d
	}
	if p := growth(DivisionExpr("R", "S"), gen, []int{20, 40, 80, 160}); p < 1.8 {
		t.Errorf("division expression growth exponent = %.2f, expected ≈ 2", p)
	}
}

func TestGrowthExponentLinear(t *testing.T) {
	gen := func(scale int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for i := 0; i < scale; i++ {
			d.AddInts("R", int64(i), int64(i))
			d.AddInts("S", int64(i))
		}
		return d
	}
	e := EquiSemijoinExpr(R("R", 2), Eq(2, 1), R("S", 1))
	if p := growth(e, gen, []int{20, 40, 80, 160}); p > 1.2 {
		t.Errorf("semijoin growth exponent = %.2f, expected ≈ 1", p)
	}
}

// growth fits the exponent p of MaxIntermediate ≈ c·|D|^p over
// e's evaluations on gen(scale), one per scale.
func growth(e Expr, gen func(scale int) *rel.Database, scales []int) float64 {
	var sizes, peaks []float64
	for _, scale := range scales {
		d := gen(scale)
		_, tr := EvalTraced(e, d)
		sizes = append(sizes, float64(d.Size()))
		peaks = append(peaks, float64(tr.MaxIntermediate))
	}
	return stats.GrowthExponent(sizes, peaks)
}
