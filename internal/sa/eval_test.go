package sa

import (
	"strings"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// TestEvalResultOwnership is the regression test for the result-
// aliasing bug, ported from the ra suite: Eval of a bare relation name
// used to return the database's stored relation itself, so adding to
// the result silently corrupted the database. Results must be
// caller-owned for every evaluator.
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
		run  func(Expr, rel.ReadStore) *rel.Relation
	}{
		{"Eval", Eval},
		{"EvalTraced", func(e Expr, d rel.ReadStore) *rel.Relation {
			res, _ := EvalTraced(e, d)
			return res
		}},
	}
	for _, ev := range evaluators {
		d := build()
		res := ev.run(R("R", 2), d)
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

// TestValidateCatchesMalformedTrees covers trees assembled from struct
// literals, which bypass the checking constructors: Validate must
// report a clear error instead of letting eval panic with a raw
// index-out-of-range.
func TestValidateCatchesMalformedTrees(t *testing.T) {
	r2 := R("R", 2)
	s1 := R("S", 1)
	bad := []struct {
		name string
		e    Expr
	}{
		{"union arity", &Union{L: r2, E: s1}},
		{"diff arity", &Diff{L: s1, E: r2}},
		{"project range", &Project{Cols: []int{3}, E: r2}},
		{"select range", &Select{I: 0, Op: ra.OpEq, J: 1, E: r2}},
		{"selectconst range", &SelectConst{I: 5, C: rel.Int(1), E: r2}},
		{"semijoin cond", &Semijoin{L: r2, E: s1, Cond: ra.Eq(3, 1)}},
		{"antijoin cond", &Antijoin{L: r2, E: s1, Cond: ra.Eq(1, 4)}},
		{"semijoin no atom", &Semijoin{L: r2, E: s1}},
		{"antijoin no atom", &Antijoin{L: r2, E: s1}},
		{"nested", &Union{L: r2, E: &Project{Cols: []int{9}, E: r2}}},
	}
	for _, c := range bad {
		if err := Validate(c.e); err == nil {
			t.Errorf("%s: Validate accepted a malformed tree", c.name)
		}
	}
	good := []Expr{
		LousyBarExpr(),
		NewAntijoin(r2, ra.Eq(2, 1), s1),
		NewProject([]int{2, 1}, r2),
	}
	for _, e := range good {
		if err := Validate(e); err != nil {
			t.Errorf("Validate rejected well-formed %s: %v", e, err)
		}
	}
}

// TestEvalPanicsWithPrefixOnInvalid pins the error surface: the
// evaluator rejects a malformed tree at entry with an "sa:"-prefixed
// panic, before any tuple is touched.
func TestEvalPanicsWithPrefixOnInvalid(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	d.AddInts("R", 1, 2)
	bad := &Project{Cols: []int{7}, E: R("R", 2)}
	for _, ev := range []struct {
		name string
		run  func()
	}{
		{"Eval", func() { Eval(bad, d) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic on malformed tree", ev.name)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.HasPrefix(msg, "sa: invalid expression:") {
					t.Errorf("%s: panic %v lacks the sa: prefix", ev.name, r)
				}
			}()
			ev.run()
		}()
	}
}
