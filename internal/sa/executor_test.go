package sa_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"radiv/internal/faultinject"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/shard"
	"radiv/internal/workload"
)

// This file holds SA expressions to the executor in internal/plan —
// the only thing that runs a cursor tree, and so the only consumer of
// this package's semijoin cursor. The full crossing of corpora,
// rewrites, stores and governors is internal/plan's executor suite;
// what lives here are the properties stated about SA in particular:
// the linear-resident bound of its operators and its scaling,
// batch-size and backend invariance of results and traces, and the
// abort contract.
//
// The test names predate the single executor and are pinned by the
// repository's test floor: Streamed* tests hold the executor to the
// materialized evaluator, and Vectorized* tests sweep the batch size.

// executed runs e as written on the executor at the given batch size
// (0 = the default).
func executed(e sa.Expr, d rel.ReadStore, batch int) (*rel.Relation, *plan.Trace) {
	return plan.CompileIR(plan.FromSA(e), d, plan.Options{BatchSize: batch}).ExecuteTraced()
}

// setJoinDatabase wraps a RandomSetJoin draw into a database over
// {R/2, S/2}.
func setJoinDatabase(seed int64) *rel.Database {
	r, s := workload.RandomSetJoin(seed).Generate()
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	return d
}

// checkAgainstMaterialized runs the materialized evaluator and the
// executor and verifies identical results, the materialized trace's
// step order, and the structural resident invariant MaxResident ≤
// TotalTuples. With strict set it additionally asserts the
// linear-resident property MaxResident ≤ MaxIntermediate against both
// the executor's flow counts and the materialized intermediates — the
// guarantee for plans whose build sides are all fed by their own
// recorded flows and not stacked concurrently.
func checkAgainstMaterialized(t *testing.T, name string, e sa.Expr, d *rel.Database, strict bool) {
	t.Helper()
	mat, mt := sa.EvalTraced(e, d)
	got, tr := executed(e, d, 0)
	if !mat.Equal(got) {
		t.Fatalf("%s: executor result differs from materialized\nmaterialized:\n%s\nexecutor:\n%s", name, mat, got)
	}
	if len(mt.Steps) != len(tr.Steps) {
		t.Fatalf("%s: step counts differ: materialized %d, executor %d", name, len(mt.Steps), len(tr.Steps))
	}
	for i := range mt.Steps {
		if mt.Steps[i].Expr.String() != tr.Steps[i].Label {
			t.Errorf("%s: step %d: materialized %s, executor %s", name, i, mt.Steps[i].Expr, tr.Steps[i].Label)
		}
	}
	if tr.MaxResident > tr.TotalTuples {
		t.Errorf("%s: MaxResident %d > TotalTuples %d (structural invariant broken)", name, tr.MaxResident, tr.TotalTuples)
	}
	if strict {
		if tr.MaxResident > tr.MaxIntermediate {
			t.Errorf("%s: MaxResident %d > executor MaxIntermediate %d", name, tr.MaxResident, tr.MaxIntermediate)
		}
		if tr.MaxResident > mt.MaxIntermediate {
			t.Errorf("%s: MaxResident %d > materialized MaxIntermediate %d", name, tr.MaxResident, mt.MaxIntermediate)
		}
	}
}

// operatorCorpus is every SA operator the executor builds on randomized
// set-join databases: union (interior and root), difference with
// stored and computed subtrahends, selections, constant selection and
// tagging, projections with duplicate-deferring consumers, and
// semijoins/antijoins across the build strategies (one, two and three
// equality atoms, equality plus residual, pure theta against stored
// and computed right sides). Depth-one plans hold at most one build at
// a time, so they carry the strict linear-resident assertion; nested
// plans stack builds (the outer build drains while the inner one is
// still held) and get the structural bound only.
func operatorCorpus() []struct {
	name   string
	e      sa.Expr
	strict bool
} {
	r2 := sa.R("R", 2)
	s2 := sa.R("S", 2)
	idS := sa.NewProject([]int{1, 2}, s2) // same as S, but not a stored relation
	tag3 := func(e sa.Expr) sa.Expr { return sa.NewConstTag(rel.Int(7), e) }
	return []struct {
		name   string
		e      sa.Expr
		strict bool
	}{
		{"stored", r2, true},
		{"union", sa.NewUnion(r2, s2), true},
		{"union-root-of-diff", sa.NewUnion(sa.NewDiff(r2, s2), sa.NewDiff(s2, r2)), true},
		{"union-nested", sa.NewProject([]int{1}, sa.NewUnion(r2, s2)), false},
		{"diff-stored-subtrahend", sa.NewDiff(r2, s2), true},
		{"diff-computed-subtrahend", sa.NewDiff(r2, idS), true},
		{"select-lt", sa.NewSelect(1, ra.OpLt, 2, r2), true},
		{"select-ne", sa.NewSelect(1, ra.OpNe, 2, r2), true},
		{"select-const", sa.NewSelectConst(2, rel.Int(1), r2), true},
		{"const-tag", tag3(r2), true},
		{"project-swap-dup", sa.NewProject([]int{2, 1, 1}, r2), true},
		{"semijoin-eq1", sa.NewSemijoin(r2, ra.Eq(2, 1), s2), true},
		{"semijoin-eq2", sa.NewSemijoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2), true},
		{"semijoin-eq3", sa.NewSemijoin(tag3(r2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), tag3(s2)), true},
		{"semijoin-eq-residual", sa.NewSemijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2), true},
		{"semijoin-theta-stored", sa.NewSemijoin(r2, ra.Lt(2, 1), s2), true},
		{"semijoin-theta-computed", sa.NewSemijoin(r2, ra.Lt(2, 1), idS), true},
		{"antijoin-eq1", sa.NewAntijoin(r2, ra.Eq(2, 1), s2), true},
		{"antijoin-eq-residual", sa.NewAntijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpGt, 2)), s2), true},
		{"antijoin-theta", sa.NewAntijoin(r2, ra.Ne(1, 2), s2), true},
		{"project-antijoin", sa.NewProject([]int{2}, sa.NewAntijoin(r2, ra.Eq(1, 1), s2)), true},
		{"union-semijoin", sa.NewUnion(sa.NewSemijoin(r2, ra.Eq(2, 1), s2), s2), true},
		{"semijoin-of-semijoin", sa.NewSemijoin(sa.NewSemijoin(r2, ra.Eq(2, 1), s2), ra.Eq(1, 2), s2), true},
		{"nested-semijoin", sa.NewSemijoin(r2, ra.Eq(2, 1), sa.NewProject([]int{1}, sa.NewSemijoin(s2, ra.Eq(2, 2), r2))), false},
		{"nested-anti-in-diff", sa.NewDiff(sa.NewProject([]int{1}, r2), sa.NewProject([]int{1}, sa.NewAntijoin(r2, ra.Eq(2, 2), s2))), false},
	}
}

// TestStreamedOperatorCorpus differentially tests the corpus against
// the materialized evaluator.
func TestStreamedOperatorCorpus(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range operatorCorpus() {
			checkAgainstMaterialized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, c.strict)
		}
	}
}

// divisionFamily is the SA expressions of the division family — the
// semijoin and antijoin shapes SA can express (division itself is out
// of reach, Proposition 26) — over {R/2, S/1}.
func divisionFamily() []struct {
	name string
	e    sa.Expr
} {
	r2 := sa.R("R", 2)
	s1 := sa.R("S", 1)
	return []struct {
		name string
		e    sa.Expr
	}{
		{"semijoin", sa.NewSemijoin(r2, ra.Eq(2, 1), s1)},
		{"antijoin", sa.NewAntijoin(r2, ra.Eq(2, 1), s1)},
		{"project-semijoin", sa.NewProject([]int{1}, sa.NewSemijoin(r2, ra.Eq(2, 1), s1))},
		{"matched-groups", sa.NewProject([]int{1}, sa.NewAntijoin(r2, ra.Eq(2, 1), s1))},
		{"semijoin-theta", sa.NewSemijoin(r2, ra.Lt(1, 1), s1)},
	}
}

// TestStreamedDivisionFamily sweeps the division family over
// randomized division workloads, with the strict linear-resident
// assertion throughout.
func TestStreamedDivisionFamily(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, c := range divisionFamily() {
			checkAgainstMaterialized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, true)
		}
	}
}

// TestStreamedLousyBar pins the paper's Example 3 expression end to
// end on randomized beer databases.
func TestStreamedLousyBar(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		d := workload.BeerDatabase(seed, 8+int(seed)*3, 6)
		checkAgainstMaterialized(t, fmt.Sprintf("lousy-bar seed %d", seed), sa.LousyBarExpr(), d, false)
	}
}

// TestStreamedResidentLinear is the ST2 scaling claim in test form: on
// a growing division family the resident peak of an SA plan grows
// linearly with the database, with an exponent matching the flow (SA
// is linear on both axes — the point of Definition 2 — in contrast to
// RA division, whose flow is quadratic while only its resident
// footprint is linear).
func TestStreamedResidentLinear(t *testing.T) {
	gen := func(n int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for i := 0; i < n; i++ {
			d.AddInts("R", int64(i), int64(i%9))
			d.AddInts("R", int64(i), int64((i+3)%9))
			if i < n/4 {
				d.AddInts("S", int64(100+i))
			}
		}
		return d
	}
	e := sa.NewProject([]int{1}, sa.NewAntijoin(sa.R("R", 2), ra.Eq(2, 1), sa.R("S", 1)))
	var resident []ra.SizePoint
	for _, n := range []int{64, 128, 256, 512} {
		d := gen(n)
		_, tr := executed(e, d, 0)
		resident = append(resident, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: tr.MaxResident})
	}
	if p := ra.GrowthExponent(resident); p > 1.3 {
		t.Errorf("SA resident exponent %.2f, want ~linear", p)
	}
}

// batchSizes is the batch-size sweep: degenerate single-row batches, a
// tiny batch, and the default capacity.
var batchSizes = []int{1, 2, 1024}

// checkBatchInvariance runs the plan at every sweep batch size over
// store and asserts what batching must not change: the result (the
// materialized evaluation over d, which holds the same data), the
// per-step flow counts, the resident peak — and that no batch leaks
// from the pool.
func checkBatchInvariance(t *testing.T, name string, e sa.Expr, d *rel.Database, store rel.ReadStore) {
	t.Helper()
	want := sa.Eval(e, d)
	var first *plan.Trace
	for _, size := range batchSizes {
		live, _, _ := rel.BatchPoolStats()
		got, tr := executed(e, store, size)
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("%s size=%d: batch leak: %d batches live before, %d after", name, size, live, after)
		}
		if !got.Equal(want) {
			t.Fatalf("%s size=%d: result differs from materialized:\n%s\nwant:\n%s", name, size, got, want)
		}
		if first == nil {
			first = tr
			continue
		}
		if len(tr.Steps) != len(first.Steps) {
			t.Fatalf("%s size=%d: %d steps, %d at size %d", name, size, len(tr.Steps), len(first.Steps), batchSizes[0])
		}
		for i, st := range tr.Steps {
			if st != first.Steps[i] {
				t.Errorf("%s size=%d: step %d is %+v, %+v at size %d", name, size, i, st, first.Steps[i], batchSizes[0])
			}
		}
		if tr.MaxResident != first.MaxResident {
			t.Errorf("%s size=%d: MaxResident %d, %d at size %d", name, size, tr.MaxResident, first.MaxResident, batchSizes[0])
		}
	}
}

// TestVectorizedSACorpus: every corpus plan, on randomized databases,
// is invariant under the batch size.
func TestVectorizedSACorpus(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range operatorCorpus() {
			checkBatchInvariance(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, d)
		}
	}
	beers := workload.BeerDatabase(1, 200, 16)
	checkBatchInvariance(t, "lousy-bar", sa.LousyBarExpr(), beers, beers)
}

// TestVectorizedSADivisionFamily sweeps randomized division workloads
// through the division family at every sweep batch size.
func TestVectorizedSADivisionFamily(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, c := range divisionFamily() {
			checkBatchInvariance(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, d)
		}
	}
}

// TestVectorizedSAOnShardedStores runs the sweep over hash-partitioned
// stores at shard counts 1, 2 and 4, whose views scan batch-natively
// across shard-local dictionaries. (A sharded θ replay materializes its
// stored side; the sweep still requires every batch size to agree on
// that.)
func TestVectorizedSAOnShardedStores(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, shards := range []int{1, 2, 4} {
			sdb := shard.FromStore(d, shards)
			for _, c := range divisionFamily() {
				checkBatchInvariance(t, fmt.Sprintf("%s seed %d shards=%d", c.name, seed, shards), c.e, d, sdb)
			}
		}
	}
}

// errAbort is the injected cursor failure of the aborted-run sweep.
var errAbort = errors.New("sa_test: injected abort")

// TestVectorizedSAAbortedRunsReleasePool: under a governor, over a
// store whose scans fail at row 3, every corpus plan at every sweep
// batch size surfaces the injected error (when it pulls far enough to
// reach it), returns no result, always leaves the batch pool balanced
// — and the executor stays serviceable.
func TestVectorizedSAAbortedRunsReleasePool(t *testing.T) {
	d := setJoinDatabase(1)
	for _, c := range operatorCorpus() {
		for _, size := range batchSizes {
			st := faultinject.Wrap(d, faultinject.Fault{FailAfter: 3, Err: errAbort})
			live, _, _ := rel.BatchPoolStats()
			res, _, err := plan.CompileIR(plan.FromSA(c.e), st, plan.Options{BatchSize: size}).ExecuteTracedContext(context.Background())
			if after, _, _ := rel.BatchPoolStats(); after != live {
				t.Fatalf("%s size=%d: aborted run leaked %d batches", c.name, size, after-live)
			}
			if err != nil {
				if !errors.Is(err, errAbort) {
					t.Fatalf("%s size=%d: abort error %v does not wrap the injection", c.name, size, err)
				}
				if res != nil {
					t.Fatalf("%s size=%d: aborted run returned a result", c.name, size)
				}
			} else if res == nil {
				t.Fatalf("%s size=%d: nil result without error", c.name, size)
			}
		}
		checkBatchInvariance(t, fmt.Sprintf("%s after aborts", c.name), c.e, d, d)
	}
}

// TestSemijoinBatchCursorContract pins NewSemijoinBatchCursor's
// argument panics.
func TestSemijoinBatchCursorContract(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if s, ok := r.(string); !ok || s != want {
				t.Fatalf("%s: panic %v, want %q", name, r, want)
			}
		}()
		f()
	}
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	sc := func() ra.BatchCursor { return d.Rel("R").BatchScan() }
	mustPanic("no-cond", "sa: semijoin cursor requires at least one condition atom", func() {
		sa.NewSemijoinBatchCursor(sc(), sc(), nil, nil, true, &ra.Meter{}, 0)
	})
	mustPanic("both-sides", "sa: semijoin cursor requires exactly one of build cursor and stored relation", func() {
		sa.NewSemijoinBatchCursor(sc(), sc(), d.Rel("R"), ra.Eq(1, 1), true, &ra.Meter{}, 0)
	})
	mustPanic("eq-needs-build", "sa: semijoin cursor with equality atoms requires a build cursor", func() {
		sa.NewSemijoinBatchCursor(sc(), nil, d.Rel("R"), ra.Eq(1, 1), true, &ra.Meter{}, 0)
	})
}

// TestResidualSemijoinBuildAllocations holds the semijoin's build
// table for a condition with a residual atom — every build row kept,
// chained per key — to a number of allocations logarithmic in its
// size: 100 000 distinct keys must not cost a slice per key.
func TestResidualSemijoinBuildAllocations(t *testing.T) {
	build := rel.NewRelationSized(2, 100000)
	for i := 0; i < 100000; i++ {
		build.Add(rel.Ints(int64(i), int64(i%7)))
	}
	probe := rel.FromRows(2, []int64{5, 9}, []int64{5, 1})
	out := 0
	allocs := testing.AllocsPerRun(1, func() {
		c := sa.NewSemijoinBatchCursor(probe.BatchScan(), build.BatchScan(), nil, ra.Eq(1, 1).And(ra.A(2, ra.OpGt, 2)), true, &ra.Meter{}, 0)
		out = 0
		for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
			out += b.Len()
			b.Release()
		}
	})
	if out != 1 {
		t.Fatalf("semijoin kept %d rows, want 1", out)
	}
	t.Logf("%.0f allocations", allocs)
	if allocs > 1000 {
		t.Errorf("a residual semijoin over 100000 distinct keys made %.0f allocations, want at most 1000", allocs)
	}
}
