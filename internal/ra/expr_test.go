package ra

import (
	"strings"
	"testing"

	"radiv/internal/rel"
)

func beerSchema() rel.Schema {
	return rel.NewSchema(map[string]int{"Likes": 2, "Serves": 2, "Visits": 2})
}

func TestOpEval(t *testing.T) {
	a, b := rel.Int(1), rel.Int(2)
	if !OpEq.Eval(a, a) || OpEq.Eval(a, b) {
		t.Error("=")
	}
	if !OpNe.Eval(a, b) || OpNe.Eval(a, a) {
		t.Error("!=")
	}
	if !OpLt.Eval(a, b) || OpLt.Eval(b, a) || OpLt.Eval(a, a) {
		t.Error("<")
	}
	if !OpGt.Eval(b, a) || OpGt.Eval(a, b) {
		t.Error(">")
	}
}

func TestCondHoldsAndPairs(t *testing.T) {
	c := Cond{{1, OpEq, 2}, {2, OpLt, 1}}
	a := rel.Ints(5, 1)
	b := rel.Ints(9, 5)
	if !c.Holds(a, b) {
		t.Error("condition should hold: a1=b2 (5=5) and a2<b1 (1<9)")
	}
	if c.Holds(b, a) {
		t.Error("condition should fail on swapped tuples")
	}
	if len(c.EqPairs()) != 1 || c.EqPairs()[0] != [2]int{1, 2} {
		t.Errorf("EqPairs = %v", c.EqPairs())
	}
	if len(c.PairsOf(OpLt)) != 1 {
		t.Errorf("PairsOf(<) = %v", c.PairsOf(OpLt))
	}
	if c.IsEquiOnly() {
		t.Error("mixed condition reported equi-only")
	}
	if !Eq(1, 1).IsEquiOnly() {
		t.Error("Eq should be equi-only")
	}
}

func TestCondValidate(t *testing.T) {
	if err := Eq(1, 2).Validate(1, 2); err != nil {
		t.Errorf("valid condition rejected: %v", err)
	}
	if err := Eq(2, 1).Validate(1, 2); err == nil {
		t.Error("left index out of range accepted")
	}
	if err := Eq(1, 3).Validate(1, 2); err == nil {
		t.Error("right index out of range accepted")
	}
}

func TestArities(t *testing.T) {
	r := R("R", 2)
	s := R("S", 1)
	if got := NewProject([]int{1, 1, 2}, r).Arity(); got != 3 {
		t.Errorf("project arity = %d", got)
	}
	if got := NewConstTag(rel.Int(7), r).Arity(); got != 3 {
		t.Errorf("tag arity = %d", got)
	}
	if got := Product(r, s).Arity(); got != 3 {
		t.Errorf("product arity = %d", got)
	}
	if got := NewUnion(r, r).Arity(); got != 2 {
		t.Errorf("union arity = %d", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	r := R("R", 2)
	s := R("S", 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("union arity", func() { NewUnion(r, s) })
	mustPanic("diff arity", func() { NewDiff(r, s) })
	mustPanic("project range", func() { NewProject([]int{3}, r) })
	mustPanic("select range", func() { NewSelect(1, OpEq, 3, r) })
	mustPanic("selectc range", func() { NewSelectConst(3, rel.Int(1), r) })
	mustPanic("join cond", func() { NewJoin(r, Eq(3, 1), s) })
}

func TestWalkAndMetadata(t *testing.T) {
	e := NewDiff(
		NewProject([]int{1}, R("R", 2)),
		NewProject([]int{1}, NewJoin(R("R", 2), Eq(2, 1), NewConstTag(rel.Int(9), R("S", 1)))),
	)
	cs := Constants(e)
	if cs.Len() != 1 || !cs.Contains(rel.Int(9)) {
		t.Errorf("Constants = %v", cs.Values())
	}
	if !IsEquiOnly(e) {
		t.Error("equi-only expression misreported")
	}
	lt := NewJoin(R("R", 2), Cond{{1, OpLt, 1}}, R("S", 1))
	if IsEquiOnly(lt) {
		t.Error("< join reported equi-only")
	}
}

func TestStringRendering(t *testing.T) {
	e := NewJoin(R("R", 2), Eq(2, 1), R("S", 1))
	if got := e.String(); got != "join[2=1](R, S)" {
		t.Errorf("String = %q", got)
	}
	sc := NewSelectConst(1, rel.Str("x"), R("S", 1))
	if !strings.Contains(sc.String(), "1='x'") {
		t.Errorf("String = %q", sc.String())
	}
	if Cond(nil).String() != "true" {
		t.Error("empty condition should render as true")
	}
}

func evalOn(t *testing.T, e Expr, d *rel.Database) *rel.Relation {
	t.Helper()
	return Eval(e, d)
}

func smallDB() *rel.Database {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	d.AddInts("R", 1, 10)
	d.AddInts("R", 1, 20)
	d.AddInts("R", 2, 10)
	d.AddInts("S", 10)
	d.AddInts("S", 20)
	return d
}

func TestEvalBasicOperators(t *testing.T) {
	d := smallDB()
	r := R("R", 2)
	s := R("S", 1)

	if got := evalOn(t, r, d); got.Len() != 3 {
		t.Errorf("R = %v", got)
	}
	if got := evalOn(t, NewProject([]int{1}, r), d); got.Len() != 2 {
		t.Errorf("π1(R) = %v", got)
	}
	union := NewUnion(NewProject([]int{2}, r), s)
	if got := evalOn(t, union, d); got.Len() != 2 {
		t.Errorf("π2(R) ∪ S = %v", got)
	}
	diff := NewDiff(s, NewProject([]int{2}, r))
	if got := evalOn(t, diff, d); got.Len() != 0 {
		t.Errorf("S − π2(R) = %v", got)
	}
}

func TestEvalSelect(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"P": 2}))
	d.AddInts("P", 1, 1)
	d.AddInts("P", 1, 2)
	d.AddInts("P", 3, 2)
	p := R("P", 2)
	if got := Eval(NewSelect(1, OpEq, 2, p), d); got.Len() != 1 || !got.Contains(rel.Ints(1, 1)) {
		t.Errorf("σ1=2 = %v", got)
	}
	if got := Eval(NewSelect(1, OpLt, 2, p), d); got.Len() != 1 || !got.Contains(rel.Ints(1, 2)) {
		t.Errorf("σ1<2 = %v", got)
	}
	if got := Eval(NewSelect(1, OpGt, 2, p), d); got.Len() != 1 || !got.Contains(rel.Ints(3, 2)) {
		t.Errorf("σ1>2 = %v", got)
	}
	if got := Eval(NewSelect(1, OpNe, 2, p), d); got.Len() != 2 {
		t.Errorf("σ1≠2 = %v", got)
	}
	if got := Eval(NewSelectConst(1, rel.Int(1), p), d); got.Len() != 2 {
		t.Errorf("σ1='1' = %v", got)
	}
}

func TestEvalConstTag(t *testing.T) {
	d := smallDB()
	e := NewConstTag(rel.Int(99), R("S", 1))
	got := Eval(e, d)
	if got.Arity() != 2 || !got.Contains(rel.Ints(10, 99)) || !got.Contains(rel.Ints(20, 99)) {
		t.Errorf("τ99(S) = %v", got)
	}
}

func TestEvalJoinHashAndNested(t *testing.T) {
	d := smallDB()
	r := R("R", 2)
	s := R("S", 1)
	// Equi-join R ⋈2=1 S.
	j := NewJoin(r, Eq(2, 1), s)
	got := Eval(j, d)
	if got.Len() != 3 || !got.Contains(rel.Ints(1, 10, 10)) {
		t.Errorf("R ⋈2=1 S = %v", got)
	}
	// Product.
	if got := Eval(Product(r, s), d); got.Len() != 6 {
		t.Errorf("R × S = %v", got)
	}
	// θ-join with < only (nested loop path): pairs of S values s1 < s2.
	lt := NewJoin(s, Cond{{1, OpLt, 1}}, s)
	if got := Eval(lt, d); got.Len() != 1 || !got.Contains(rel.Ints(10, 20)) {
		t.Errorf("S ⋈1<1 S = %v", got)
	}
	// Mixed condition: equality plus inequality residual.
	mixed := NewJoin(r, Cond{{1, OpEq, 1}, {2, OpNe, 2}}, r)
	got = Eval(mixed, d)
	if got.Len() != 2 { // (1,10)-(1,20) and (1,20)-(1,10)
		t.Errorf("mixed join = %v", got)
	}
}

func TestEvalTrace(t *testing.T) {
	d := smallDB()
	e := DivisionExpr("R", "S")
	res, tr := EvalTraced(e, d)
	if res.Len() != 1 || !res.Contains(rel.Ints(1)) {
		t.Errorf("R ÷ S = %v", res)
	}
	if tr.MaxIntermediate < 4 { // π1(R) × S has 2*2 = 4 tuples
		t.Errorf("MaxIntermediate = %d, expected ≥ 4", tr.MaxIntermediate)
	}
	if len(tr.Steps) == 0 || tr.TotalTuples == 0 {
		t.Error("trace not recorded")
	}
	peak, total := 0, 0
	for _, s := range tr.Steps {
		peak, total = max(peak, s.Size), total+s.Size
	}
	if peak != tr.MaxIntermediate || total != tr.TotalTuples {
		t.Errorf("steps give max %d, total %d; trace says %d, %d", peak, total, tr.MaxIntermediate, tr.TotalTuples)
	}
	if last := tr.Steps[len(tr.Steps)-1]; last.Label != e.String() || last.Size != res.Len() {
		t.Errorf("last step %+v, want the root %s with size %d", last, e, res.Len())
	}
	if !strings.Contains(tr.String(), "max intermediate") {
		t.Error("trace String missing summary")
	}
}

func TestEvalArityMismatchPanics(t *testing.T) {
	d := smallDB()
	defer func() {
		if recover() == nil {
			t.Error("evaluating R with wrong declared arity should panic")
		}
	}()
	Eval(R("R", 3), d)
}

func TestDesugarEquivalence(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"P": 2}))
	d.AddInts("P", 1, 1)
	d.AddInts("P", 1, 2)
	d.AddInts("P", 3, 2)
	d.AddInts("P", 5, 4)
	p := R("P", 2)
	exprs := []Expr{
		NewSelectConst(1, rel.Int(1), p),
		NewSelect(1, OpNe, 2, p),
		NewSelect(1, OpGt, 2, p),
		NewUnion(NewSelect(1, OpGt, 2, p), NewSelectConst(2, rel.Int(2), p)),
	}
	for _, e := range exprs {
		want := Eval(e, d)
		got := Eval(Desugar(e), d)
		if !want.Equal(got) {
			t.Errorf("Desugar(%s) changed semantics:\n%s\nvs\n%s", e, want, got)
		}
	}
	// Desugared expressions use only primitive operators.
	var usesDerived bool
	Walk(Desugar(exprs[0]), func(x Expr) {
		switch n := x.(type) {
		case *SelectConst:
			usesDerived = true
		case *Select:
			if n.Op == OpNe || n.Op == OpGt {
				usesDerived = true
			}
		}
	})
	if usesDerived {
		t.Error("Desugar left derived forms in place")
	}
}
