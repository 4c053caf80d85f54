package xra

import (
	"math/rand"
	"testing"

	"radiv/internal/division"
	"radiv/internal/ra"
	"radiv/internal/rel"
)

func divDB(rows [][2]int64, s []int64) *rel.Database {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, r := range rows {
		d.AddInts("R", r[0], r[1])
	}
	for _, v := range s {
		d.AddInts("S", v)
	}
	return d
}

func TestGammaBasics(t *testing.T) {
	d := divDB([][2]int64{{1, 10}, {1, 20}, {2, 10}}, nil)
	g := NewGamma([]int{1}, 2, &Wrap{E: ra.R("R", 2)})
	got := Eval(g, d)
	want := rel.FromTuples(2, rel.Ints(1, 2), rel.Ints(2, 1))
	if !got.Equal(want) {
		t.Errorf("γ = %v, want %v", got, want)
	}
	// count(*) over everything.
	all := NewGamma(nil, 0, &Wrap{E: ra.R("R", 2)})
	got = Eval(all, d)
	if got.Len() != 1 || !got.Contains(rel.Ints(3)) {
		t.Errorf("count(*) = %v", got)
	}
}

func TestGammaEmptyInput(t *testing.T) {
	d := divDB(nil, nil)
	grand := NewGamma(nil, 1, &Wrap{E: ra.R("S", 1)})
	got := Eval(grand, d)
	if got.Len() != 1 || !got.Contains(rel.Ints(0)) {
		t.Errorf("grand aggregate of empty = %v, want {(0)}", got)
	}
	grouped := NewGamma([]int{1}, 2, &Wrap{E: ra.R("R", 2)})
	if got := Eval(grouped, d); got.Len() != 0 {
		t.Errorf("grouped aggregate of empty = %v, want ∅", got)
	}
}

func TestGammaCountDistinct(t *testing.T) {
	// Projection dedups, so feed duplicates via a join fan-out:
	// (A,B,C): group by A counting distinct B.
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"P": 3}))
	d.AddInts("P", 1, 5, 100)
	d.AddInts("P", 1, 5, 200)
	d.AddInts("P", 1, 6, 100)
	g := NewGamma([]int{1}, 2, &Wrap{E: ra.R("P", 3)})
	got := Eval(g, d)
	if got.Len() != 1 || !got.Contains(rel.Ints(1, 2)) {
		t.Errorf("count distinct = %v, want {(1,2)}", got)
	}
	star := NewGamma([]int{1}, 0, &Wrap{E: ra.R("P", 3)})
	got = Eval(star, d)
	if !got.Contains(rel.Ints(1, 3)) {
		t.Errorf("count(*) = %v, want {(1,3)}", got)
	}
}

// TestSection5ContainmentDivision: the γ-expression computes division
// and agrees with the reference algorithm on random inputs (nonempty
// divisor — the counting expression, like the paper's, conflates
// "no matches" with "no group" when S = ∅).
func TestSection5ContainmentDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	e := ContainmentDivision("R", "S")
	for trial := 0; trial < 50; trial++ {
		var rows [][2]int64
		for i := 0; i < 30; i++ {
			rows = append(rows, [2]int64{int64(rng.Intn(6)), int64(rng.Intn(7))})
		}
		s := []int64{int64(rng.Intn(7))}
		for i := 0; i < rng.Intn(3); i++ {
			s = append(s, int64(rng.Intn(7)))
		}
		d := divDB(rows, s)
		want := division.Reference(d.Rel("R"), d.Rel("S"), division.Containment)
		got := Eval(e, d)
		if !want.Equal(got) {
			t.Fatalf("trial %d: γ-division = %v, want %v\n%s", trial, got, want, d)
		}
	}
}

// TestSection5EqualityDivision: analogous for the equality variant.
func TestSection5EqualityDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	e := EqualityDivision("R", "S")
	for trial := 0; trial < 50; trial++ {
		var rows [][2]int64
		for i := 0; i < 25; i++ {
			rows = append(rows, [2]int64{int64(rng.Intn(5)), int64(rng.Intn(6))})
		}
		s := []int64{int64(rng.Intn(6))}
		for i := 0; i < rng.Intn(3); i++ {
			s = append(s, int64(rng.Intn(6)))
		}
		d := divDB(rows, s)
		want := division.Reference(d.Rel("R"), d.Rel("S"), division.Equality)
		got := Eval(e, d)
		if !want.Equal(got) {
			t.Fatalf("trial %d: γ-equality-division = %v, want %v\n%s", trial, got, want, d)
		}
	}
}

// TestSection5Linear is the point of Section 5: the γ-expression's
// intermediates stay linear in |D| while the pure-RA division
// expression is quadratic on the same inputs.
func TestSection5Linear(t *testing.T) {
	build := func(n int) *rel.Database {
		var rows [][2]int64
		for i := 0; i < n; i++ {
			rows = append(rows, [2]int64{int64(i), int64(i % 9)})
		}
		var s []int64
		for i := 0; i < n/2; i++ {
			s = append(s, int64(9+i))
		}
		return divDB(rows, s)
	}
	for _, n := range []int{50, 100, 200} {
		d := build(n)
		_, tr := EvalTraced(ContainmentDivision("R", "S"), d)
		if tr.MaxIntermediate > 2*d.Size() {
			t.Errorf("n=%d: γ-division intermediate %d exceeds linear bound (|D| = %d)",
				n, tr.MaxIntermediate, d.Size())
		}
		_, rtr := ra.EvalTraced(ra.DivisionExpr("R", "S"), d)
		if rtr.MaxIntermediate < n*n/4 {
			t.Errorf("n=%d: RA division intermediate %d unexpectedly small", n, rtr.MaxIntermediate)
		}
	}
}

func TestJoinAndProject(t *testing.T) {
	d := divDB([][2]int64{{1, 10}, {2, 20}}, []int64{10})
	j := NewJoin(&Wrap{E: ra.R("R", 2)}, ra.Eq(2, 1), &Wrap{E: ra.R("S", 1)})
	got := Eval(j, d)
	if got.Len() != 1 || !got.Contains(rel.Ints(1, 10, 10)) {
		t.Errorf("join = %v", got)
	}
	p := NewProject([]int{1}, j)
	if got := Eval(p, d); got.Len() != 1 || !got.Contains(rel.Ints(1)) {
		t.Errorf("project = %v", got)
	}
	// Cartesian product path.
	prod := NewJoin(&Wrap{E: ra.R("S", 1)}, nil, &Wrap{E: ra.R("S", 1)})
	if got := Eval(prod, d); got.Len() != 1 {
		t.Errorf("product = %v", got)
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
	w := &Wrap{E: ra.R("R", 2)}
	mustPanic("gamma group", func() { NewGamma([]int{3}, 0, w) })
	mustPanic("gamma count", func() { NewGamma(nil, 5, w) })
	mustPanic("join cond", func() { NewJoin(w, ra.Eq(3, 1), w) })
	mustPanic("project", func() { NewProject([]int{0}, w) })
}

func TestTraceIncludesWrappedSteps(t *testing.T) {
	d := divDB([][2]int64{{1, 10}}, []int64{10})
	e := ContainmentDivision("R", "S")
	_, tr := EvalTraced(e, d)
	if len(tr.Steps) < 5 {
		t.Errorf("trace too shallow: %d steps", len(tr.Steps))
	}
	if tr.MaxIntermediate == 0 {
		t.Error("no intermediate sizes recorded")
	}
}

// TestEvalResultOwnership asserts the caller-owned-results contract
// for the xra evaluator, the same contract ra and sa regression-test:
// mutating a result must never write through to the database. The root
// shapes covered are a wrapped bare relation (delegating to ra, which
// clones) and an operator node (fresh relation by construction).
func TestEvalResultOwnership(t *testing.T) {
	build := func() *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
		d.AddInts("R", 1, 2)
		d.AddInts("R", 3, 4)
		return d
	}
	evaluators := []struct {
		name string
		run  func(Expr, rel.ReadStore) *rel.Relation
	}{
		{"Eval", Eval},
		{"EvalTraced", func(e Expr, d rel.ReadStore) *rel.Relation {
			res, _ := EvalTraced(e, d)
			return res
		}},
	}
	intruder := rel.Ints(9, 9)
	for _, ev := range evaluators {
		d := build()
		res := ev.run(&Wrap{E: ra.R("R", 2)}, d)
		if !res.Add(intruder) {
			t.Fatalf("%s: result should accept a new tuple", ev.name)
		}
		if d.Rel("R").Contains(intruder) {
			t.Errorf("%s: adding to the result mutated the database", ev.name)
		}
		if got := d.Rel("R").Len(); got != 2 {
			t.Errorf("%s: database relation has %d tuples after result mutation, want 2", ev.name, got)
		}
	}
}

// TestValidateCatchesMalformedTrees covers struct-literal trees that
// bypass the checking constructors.
func TestValidateCatchesMalformedTrees(t *testing.T) {
	r2 := &Wrap{E: ra.R("R", 2)}
	bad := []struct {
		name string
		e    Expr
	}{
		{"gamma group", &Gamma{GroupCols: []int{5}, CountCol: 0, E: r2}},
		{"gamma count", &Gamma{GroupCols: []int{1}, CountCol: 9, E: r2}},
		{"join cond", &Join{L: r2, E: r2, Cond: ra.Eq(7, 1)}},
		{"project", &Project{Cols: []int{0}, E: r2}},
		{"wrapped ra", &Wrap{E: &ra.Project{Cols: []int{9}, E: ra.R("R", 2)}}},
	}
	for _, c := range bad {
		if err := Validate(c.e); err == nil {
			t.Errorf("%s: Validate accepted a malformed tree", c.name)
		}
	}
	if err := Validate(ContainmentDivision("R", "S")); err != nil {
		t.Errorf("Validate rejected the Section 5 expression: %v", err)
	}
}
