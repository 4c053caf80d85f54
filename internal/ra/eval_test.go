package ra_test

import (
	"math/rand"
	"testing"

	"radiv/internal/division"
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// TestEvalResultOwnership is the regression test for the result-
// aliasing bug: Eval of a bare relation name used to return the
// database's stored relation itself, so adding to the result silently
// corrupted the database. Results must be caller-owned for every
// evaluator and every expression shape.
func TestEvalResultOwnership(t *testing.T) {
	build := func() *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
		d.AddInts("R", 1, 2)
		d.AddInts("R", 3, 4)
		return d
	}
	intruder := rel.Ints(9, 9)
	evaluators := []struct {
		name string
		run  func(ra.Expr, rel.ReadStore) *rel.Relation
	}{
		{"Eval", ra.Eval},
		{"EvalTraced", func(e ra.Expr, d rel.ReadStore) *rel.Relation {
			res, _ := ra.EvalTraced(e, d)
			return res
		}},
		{"executor", onExecutor},
	}
	for _, ev := range evaluators {
		d := build()
		res := ev.run(ra.R("R", 2), d)
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

// crossJoinReference computes r1 ⋈θ r2 by nested loops, the oracle for
// the hash-join paths.
func crossJoinReference(c ra.Cond, r1, r2 *rel.Relation) *rel.Relation {
	out := rel.NewRelation(r1.Arity() + r2.Arity())
	for _, a := range r1.Tuples() {
		for _, b := range r2.Tuples() {
			if c.Holds(a, b) {
				out.Add(a.Concat(b))
			}
		}
	}
	return out
}

// TestEvalJoinManyEqualities exercises the ≥3-equality-atom hash-join
// fallback (interned ID-slice keys mixed by rel.HashIDs) in both
// evaluators: three and four equality atoms, probe values absent from
// the build side, residual non-equality atoms, and string values.
func TestEvalJoinManyEqualities(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"L": 4, "M": 4}))
	rows := [][]int64{
		{1, 2, 3, 4}, {1, 2, 3, 9}, {2, 2, 3, 1}, {5, 6, 7, 8},
		{1, 2, 4, 4}, {9, 9, 9, 9}, {0, 0, 0, 0},
	}
	for _, row := range rows {
		d.AddInts("L", row...)
	}
	for _, row := range [][]int64{
		{1, 2, 3, 0}, {1, 2, 3, 7}, {2, 2, 3, 3}, {5, 6, 7, 1},
		{8, 8, 8, 8}, {0, 0, 0, 5},
	} {
		d.AddInts("M", row...)
	}
	conds := []ra.Cond{
		ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}),
		ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}, [2]int{4, 4}),
		ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}).And(ra.A(4, ra.OpGt, 4)),
	}
	for _, c := range conds {
		e := ra.NewJoin(ra.R("L", 4), c, ra.R("M", 4))
		want := crossJoinReference(c, d.Rel("L"), d.Rel("M"))
		if got := ra.Eval(e, d); !got.Equal(want) {
			t.Errorf("Eval join[%s]: got\n%swant\n%s", c, got, want)
		}
		if got := onExecutor(e, d); !got.Equal(want) {
			t.Errorf("executor join[%s]: got\n%swant\n%s", c, got, want)
		}
	}
}

// TestEvalJoinManyEqualitiesStrings covers the fallback with string
// values, where the old implementation built injective key strings.
func TestEvalJoinManyEqualitiesStrings(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"L": 3, "M": 3}))
	for _, row := range [][]string{{"a", "b", "c"}, {"a", "b", "d"}, {"x", "y", "z"}, {"", "b", "c"}} {
		d.AddStrs("L", row...)
	}
	for _, row := range [][]string{{"a", "b", "c"}, {"x", "y", "z"}, {"", "b", "c"}, {"q", "q", "q"}} {
		d.AddStrs("M", row...)
	}
	c := ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3})
	e := ra.NewJoin(ra.R("L", 3), c, ra.R("M", 3))
	want := crossJoinReference(c, d.Rel("L"), d.Rel("M"))
	if got := ra.Eval(e, d); !got.Equal(want) {
		t.Errorf("Eval join[%s] on strings: got\n%swant\n%s", c, got, want)
	}
	if got := onExecutor(e, d); !got.Equal(want) {
		t.Errorf("executor join[%s] on strings: got\n%swant\n%s", c, got, want)
	}
}

// TestDivisionExprMatchesReference holds the classical division
// expression to the containment oracle, division.Reference, on random
// inputs whose divisor has 0–3 tuples (the empty divisor included).
func TestDivisionExprMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for i := 0; i < 30; i++ {
			d.AddInts("R", int64(rng.Intn(6)), int64(rng.Intn(8)))
		}
		for i := 0; i < rng.Intn(4); i++ {
			d.AddInts("S", int64(rng.Intn(8)))
		}
		want := division.Reference(d.Rel("R"), d.Rel("S"), division.Containment)
		got := ra.Eval(ra.DivisionExpr("R", "S"), d)
		if !want.Equal(got) {
			t.Fatalf("trial %d: DivisionExpr disagrees with reference\nR:\n%sS:\n%sgot %v want %v",
				trial, d.Rel("R"), d.Rel("S"), got, want)
		}
	}
}
