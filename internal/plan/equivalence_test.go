package plan_test

import (
	"fmt"
	"testing"

	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/shard"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// This file is the planner-equivalence suite: for every expression in
// the operator corpus and for randomized division and set-join
// workloads, the plan — optimized or not — must produce the result the
// materialized ra.Eval gives for the source expression, byte for byte
// in canonical order, across every execution surface the plan layer
// dispatches to: the batch-native engines at batch sizes 1, 64 and
// 1024, the traced path, and the sharded store at shard counts 1/2/4
// with worker counts 1/2/4. The trace is held, step by step and in
// MaxResident, to the bound algebra's tuple-at-a-time evaluator. Run
// under -race this doubles as the planner's parallel-safety check.

// sameEmission compares two results tuple-by-tuple in emission order.
func sameEmission(a, b *rel.Relation) error {
	if a.Arity() != b.Arity() {
		return fmt.Errorf("arity %d vs %d", a.Arity(), b.Arity())
	}
	at, bt := a.Tuples(), b.Tuples()
	if len(at) != len(bt) {
		return fmt.Errorf("%d tuples vs %d", len(at), len(bt))
	}
	for i := range at {
		if !at[i].Equal(bt[i]) {
			return fmt.Errorf("tuple %d: %s vs %s", i, at[i], bt[i])
		}
	}
	return nil
}

// tupleTrace evaluates the plan's tree with the tuple-at-a-time
// evaluator of the algebra the plan is bound to, returning the trace in
// the plan layer's form; ok is false for mixed plans, which no single
// algebra evaluates.
func tupleTrace(p *plan.Plan, d rel.ReadStore) (tr plan.Trace, ok bool) {
	switch p.Engine() {
	case plan.EngineRA:
		e, _ := plan.ToRA(p.Root())
		_, t := ra.EvalStreamedTraced(e, d)
		for _, s := range t.Steps {
			tr.Steps = append(tr.Steps, plan.Step{Label: s.Expr.String(), Size: s.Size})
		}
		tr.MaxResident = t.MaxResident
	case plan.EngineSA:
		e, _ := plan.ToSA(p.Root())
		_, t := sa.EvalStreamedTraced(e, d)
		for _, s := range t.Steps {
			tr.Steps = append(tr.Steps, plan.Step{Label: s.Expr.String(), Size: s.Size})
		}
		tr.MaxResident = t.MaxResident
	case plan.EngineXRA:
		e, _ := plan.ToXRA(p.Root())
		_, t := xra.EvalStreamedTraced(e, d)
		for _, s := range t.Steps {
			tr.Steps = append(tr.Steps, plan.Step{Label: s.Expr.String(), Size: s.Size})
		}
		tr.MaxResident = t.MaxResident
	default:
		return tr, false
	}
	return tr, true
}

// checkEquivalence runs one expression over one store through every
// execution surface and compares against the materialized oracle.
func checkEquivalence(t *testing.T, e ra.Expr, d *rel.Database) {
	t.Helper()
	oracle := ra.Eval(e, d)
	want := rel.NewRelationSized(oracle.Arity(), oracle.Len())
	for _, tp := range oracle.Sorted() {
		want.Add(tp)
	}

	base, err := plan.Compile(e, d, plan.Options{})
	if err != nil {
		t.Fatalf("%s: unoptimized compile: %v", e, err)
	}
	if err := sameEmission(want, base.Execute()); err != nil {
		t.Errorf("%s: unoptimized (engine %s): %v", e, base.Engine(), err)
	}

	for _, size := range []int{1, 64, 1024} {
		opt, err := plan.Compile(e, d, plan.Options{Optimize: true, BatchSize: size})
		if err != nil {
			t.Fatalf("%s: optimized compile: %v", e, err)
		}
		if err := sameEmission(want, opt.Execute()); err != nil {
			t.Errorf("%s: optimized (engine %s, batch %d): %v", e, opt.Engine(), size, err)
		}
		traced, got := opt.ExecuteTraced()
		if err := sameEmission(want, traced); err != nil {
			t.Errorf("%s: optimized traced (engine %s, batch %d): %v", e, opt.Engine(), size, err)
		}
		ref, ok := tupleTrace(opt, d)
		if !ok {
			continue
		}
		if len(got.Steps) != len(ref.Steps) {
			t.Errorf("%s (engine %s, batch %d): trace has %d steps, tuple evaluator %d", e, opt.Engine(), size, len(got.Steps), len(ref.Steps))
			continue
		}
		for i := range ref.Steps {
			if got.Steps[i] != ref.Steps[i] {
				t.Errorf("%s (engine %s, batch %d): step %d: %+v, tuple evaluator %+v", e, opt.Engine(), size, i, got.Steps[i], ref.Steps[i])
			}
		}
		if got.MaxResident != ref.MaxResident {
			t.Errorf("%s (engine %s, batch %d): MaxResident %d, tuple evaluator %d", e, opt.Engine(), size, got.MaxResident, ref.MaxResident)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		s := shard.FromStore(d, shards)
		for _, workers := range []int{1, 2, 4} {
			sp, err := plan.Compile(e, s, plan.Options{Optimize: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s: sharded compile: %v", e, err)
			}
			if err := sameEmission(want, sp.Execute()); err != nil {
				t.Errorf("%s: shards=%d workers=%d: %v", e, shards, workers, err)
			}
		}
	}
}

// TestPlannerEquivalenceCorpus sweeps the full operator corpus over
// randomized set-join databases.
func TestPlannerEquivalenceCorpus(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		d := setJoinDatabase(seed)
		for _, e := range testCorpus() {
			checkEquivalence(t, e, d)
		}
	}
}

// TestPlannerEquivalenceDivision sweeps the division expressions —
// the rewrites that change engines and enable the shard fast path —
// over randomized division workloads, including degenerate draws
// (empty S, empty R) where the rewrite guards must decline.
func TestPlannerEquivalenceDivision(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkEquivalence(t, ra.DivisionExpr("R", "S"), d)
		checkEquivalence(t, ra.EqualityDivisionExpr("R", "S"), d)
	}
	empty := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	checkEquivalence(t, ra.DivisionExpr("R", "S"), empty)
}

// TestPlannerEquivalenceSetJoins sweeps the set-join idioms, whose
// inner semijoin shapes are where the linearize rule fires.
func TestPlannerEquivalenceSetJoins(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		d := setJoinDatabase(seed)
		checkEquivalence(t, ra.SetContainmentJoinExpr("R", "S"), d)
		checkEquivalence(t, ra.SetEqualityJoinExpr("R", "S"), d)
	}
}
