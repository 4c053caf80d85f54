package ra_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"radiv/internal/faultinject"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/workload"
)

// This file holds RA expressions to the executor in internal/plan —
// the only thing that runs a cursor tree, and so the only consumer of
// this package's batch operators. The full crossing of corpora,
// rewrites, stores and governors is internal/plan's executor suite;
// what lives here are the properties stated about RA in particular:
// the resident bounds of the division and set-join idioms and their
// scaling, the projection dedup decision, batch-size invariance of
// results and traces, and the abort and ownership contracts.
//
// The test names predate the single executor and are pinned by the
// repository's test floor: Streamed* tests hold the executor to the
// materialized evaluator, and Vectorized* tests sweep the batch size.

// executed runs e as written on the executor at the given batch size
// (0 = the default).
func executed(e ra.Expr, d rel.ReadStore, batch int) (*rel.Relation, *plan.Trace) {
	return plan.CompileIR(plan.FromRA(e), d, plan.Options{BatchSize: batch}).ExecuteTraced()
}

func onExecutor(e ra.Expr, d rel.ReadStore) *rel.Relation {
	res, _ := executed(e, d, 0)
	return res
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
// step order, and the structural resident invariant: every tuple the
// executor holds flowed through some operator, so MaxResident can
// never exceed TotalTuples.
func checkAgainstMaterialized(t *testing.T, name string, e ra.Expr, d *rel.Database) (*ra.Trace, *plan.Trace) {
	t.Helper()
	mat, mt := ra.EvalTraced(e, d)
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
	return mt, tr
}

// TestStreamedDivisionEquivalence sweeps randomized division workloads
// through the classical containment and equality division expressions.
// On the classical (containment) expression the plan holds a single
// sink at a time, so its resident peak is bounded by the largest flow:
// MaxResident ≤ MaxIntermediate on every trace, both against the
// executor's flow counts and against the materialized intermediates.
func TestStreamedDivisionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		d := workload.RandomDivision(seed).Database()
		mt, tr := checkAgainstMaterialized(t, fmt.Sprintf("division seed %d", seed), ra.DivisionExpr("R", "S"), d)
		if tr.MaxResident > tr.MaxIntermediate {
			t.Errorf("seed %d: MaxResident %d > executor MaxIntermediate %d", seed, tr.MaxResident, tr.MaxIntermediate)
		}
		if tr.MaxResident > mt.MaxIntermediate {
			t.Errorf("seed %d: MaxResident %d > materialized MaxIntermediate %d", seed, tr.MaxResident, mt.MaxIntermediate)
		}
		checkAgainstMaterialized(t, fmt.Sprintf("eq-division seed %d", seed), ra.EqualityDivisionExpr("R", "S"), d)
	}
}

// TestStreamedSetJoinEquivalence sweeps randomized set-join workloads
// through the classical set-containment and set-equality join
// expressions. These plans keep several blocking sinks live at once
// (the non-containment witness sink overlaps the verification join's
// build side), so the *sum* of held state can slightly exceed the
// largest single flow; the per-trace guarantee here is the structural
// one checked by checkAgainstMaterialized, and result equivalence.
func TestStreamedSetJoinEquivalence(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		d := setJoinDatabase(seed)
		checkAgainstMaterialized(t, fmt.Sprintf("set-containment seed %d", seed), ra.SetContainmentJoinExpr("R", "S"), d)
		checkAgainstMaterialized(t, fmt.Sprintf("set-equality seed %d", seed), ra.SetEqualityJoinExpr("R", "S"), d)
	}
}

// operatorCorpus is every operator the executor builds from this
// package — union (root and nested), difference with stored and
// computed subtrahends, selections, constant selection and tagging,
// projections, equi joins (one, two and three equality atoms, with a
// residual), theta joins and products against stored and computed
// right sides.
func operatorCorpus() []struct {
	name string
	e    ra.Expr
} {
	r2 := ra.R("R", 2)
	s2 := ra.R("S", 2)
	idS := ra.NewProject([]int{1, 2}, s2) // same as S, but not a stored relation
	tag3 := func(e ra.Expr) ra.Expr { return ra.NewConstTag(rel.Int(7), e) }
	return []struct {
		name string
		e    ra.Expr
	}{
		{"union", ra.NewUnion(r2, s2)},
		{"union-root-of-diff", ra.NewUnion(ra.NewDiff(r2, s2), ra.NewDiff(s2, r2))},
		{"union-nested", ra.NewProject([]int{1}, ra.NewUnion(r2, s2))},
		{"diff-stored-subtrahend", ra.NewDiff(r2, s2)},
		{"diff-computed-subtrahend", ra.NewDiff(r2, idS)},
		{"select-lt", ra.NewSelect(1, ra.OpLt, 2, r2)},
		{"select-ne", ra.NewSelect(1, ra.OpNe, 2, r2)},
		{"select-eq", ra.NewSelect(1, ra.OpEq, 2, r2)},
		{"select-const", ra.NewSelectConst(2, rel.Int(1), r2)},
		{"select-const-absent", ra.NewSelectConst(2, rel.Str("no-such-value"), r2)},
		{"const-tag", tag3(r2)},
		{"project-swap-dup", ra.NewProject([]int{2, 1, 1}, r2)},
		{"equi-join-1", ra.NewJoin(r2, ra.Eq(2, 1), s2)},
		{"equi-join-2", ra.NewJoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2)},
		{"equi-join-3", ra.NewJoin(tag3(r2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), tag3(s2))},
		{"equi-join-residual", ra.NewJoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"theta-join-stored", ra.NewJoin(r2, ra.Lt(2, 1), s2)},
		{"theta-join-computed", ra.NewJoin(r2, ra.Lt(2, 1), idS)},
		{"product", ra.Product(r2, s2)},
		{"product-computed-right", ra.Product(r2, idS)},
		{"semijoin-shape", ra.EquiSemijoinExpr(r2, ra.Eq(2, 1), ra.NewProject([]int{1}, s2))},
	}
}

// corpusSeeds are the RandomSetJoin draws the corpus runs on, picked
// small: the corpus has four quadratic products.
var corpusSeeds = []int64{1, 3, 5, 6, 8, 10, 12}

// TestStreamedOperatorCorpus differentially tests the corpus on
// randomized databases, in sugared and desugared form.
func TestStreamedOperatorCorpus(t *testing.T) {
	for _, seed := range corpusSeeds {
		d := setJoinDatabase(seed)
		for _, c := range operatorCorpus() {
			checkAgainstMaterialized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d)
			checkAgainstMaterialized(t, fmt.Sprintf("desugared %s seed %d", c.name, seed), ra.Desugar(c.e), d)
		}
	}
}

// TestStreamedTraceShape pins the executor's trace to the materialized
// one on the division expression: same nodes, same post-order
// (checkAgainstMaterialized). Step sizes may legitimately differ —
// dedup-deferred projections count duplicates, and stored relations
// consumed in place count zero flow — but the roots agree on emptiness.
func TestStreamedTraceShape(t *testing.T) {
	d := workload.RandomDivision(3).Database()
	mt, tr := checkAgainstMaterialized(t, "division", ra.DivisionExpr("R", "S"), d)
	if mt.Steps[len(mt.Steps)-1].Size == 0 && tr.Steps[len(tr.Steps)-1].Size != 0 {
		t.Errorf("root sizes disagree on emptiness")
	}
}

// TestStreamedResidentGrowsSlower is the scaling claim on the
// classical division expression: as the database grows, the executor's
// resident peak grows linearly while the flow it measures (and the
// materialized evaluator's intermediates) grow quadratically.
func TestStreamedResidentGrowsSlower(t *testing.T) {
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
	e := ra.DivisionExpr("R", "S")
	// GrowthExponent fits the MaxIntermediate field against
	// DatabaseSize; the resident series carries MaxResident there.
	var resident, flow []ra.SizePoint
	for _, n := range []int{64, 128, 256, 512} {
		d := gen(n)
		_, tr := executed(e, d, 0)
		resident = append(resident, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: tr.MaxResident})
		flow = append(flow, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: tr.MaxIntermediate})
	}
	pRes, pFlow := ra.GrowthExponent(resident), ra.GrowthExponent(flow)
	if pFlow < 1.7 {
		t.Errorf("flow exponent %.2f, want quadratic (the paper's lower bound)", pFlow)
	}
	if pRes > 1.3 {
		t.Errorf("resident exponent %.2f, want ~linear", pRes)
	}
	if pRes >= pFlow {
		t.Errorf("resident exponent %.2f not strictly below flow exponent %.2f", pRes, pFlow)
	}
}

// TestStreamedUnionRootResident pins the MaxResident contract at a
// union root: the result relation is not operator state, so a union of
// two stored relations — which needs no auxiliary state at all — must
// report zero resident tuples, while an interior union sink still
// counts.
func TestStreamedUnionRootResident(t *testing.T) {
	d := setJoinDatabase(1)
	union := ra.NewUnion(ra.R("R", 2), ra.R("S", 2))
	if _, tr := checkAgainstMaterialized(t, "union root", union, d); tr.MaxResident != 0 {
		t.Errorf("union-rooted plan reports MaxResident %d, want 0 (result is not operator state)", tr.MaxResident)
	}
	// The same union as an interior node is a genuine blocking sink.
	if _, tr := executed(ra.NewProject([]int{1}, union), d, 0); tr.MaxResident == 0 {
		t.Errorf("interior union sink reported no resident state")
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
func checkBatchInvariance(t *testing.T, name string, e ra.Expr, d *rel.Database, store rel.ReadStore) {
	t.Helper()
	want := ra.Eval(e, d)
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

// TestVectorizedOperatorCorpus: every corpus plan, on randomized
// databases, is invariant under the batch size.
func TestVectorizedOperatorCorpus(t *testing.T) {
	for _, seed := range corpusSeeds[:4] {
		d := setJoinDatabase(seed)
		for _, c := range operatorCorpus() {
			checkBatchInvariance(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, d)
			checkBatchInvariance(t, fmt.Sprintf("desugared %s seed %d", c.name, seed), ra.Desugar(c.e), d, d)
		}
	}
}

// TestVectorizedDivisionEquivalence sweeps randomized division
// workloads through the classical division expressions at every sweep
// batch size.
func TestVectorizedDivisionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkBatchInvariance(t, fmt.Sprintf("division seed %d", seed), ra.DivisionExpr("R", "S"), d, d)
		checkBatchInvariance(t, fmt.Sprintf("eq-division seed %d", seed), ra.EqualityDivisionExpr("R", "S"), d, d)
	}
}

// TestVectorizedSetJoinEquivalence covers the set-join expression
// shapes, whose plans stack several blocking sinks.
func TestVectorizedSetJoinEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := setJoinDatabase(seed)
		checkBatchInvariance(t, fmt.Sprintf("set-containment seed %d", seed), ra.SetContainmentJoinExpr("R", "S"), d, d)
		checkBatchInvariance(t, fmt.Sprintf("set-equality seed %d", seed), ra.SetEqualityJoinExpr("R", "S"), d, d)
	}
}

// TestVectorizedOnShardedStores runs the sweep over hash-partitioned
// stores at shard counts 1, 2 and 4, whose views scan batch-natively
// across shard-local dictionaries.
func TestVectorizedOnShardedStores(t *testing.T) {
	exprs := []struct {
		name string
		e    ra.Expr
	}{
		{"division", ra.DivisionExpr("R", "S")},
		{"join-diff", ra.NewDiff(ra.NewProject([]int{1}, ra.NewJoin(ra.R("R", 2), ra.Eq(2, 1), ra.R("S", 1))), ra.NewProject([]int{1}, ra.R("R", 2)))},
	}
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, shards := range []int{1, 2, 4} {
			sdb := shard.FromStore(d, shards)
			for _, c := range exprs {
				checkBatchInvariance(t, fmt.Sprintf("%s seed %d shards=%d", c.name, seed, shards), c.e, d, sdb)
			}
		}
	}
}

// TestVectorizedConstSelectGrowingDictionary is the regression test
// for the stale negative-cache bug: γ interns each count into its
// output dictionary as it emits, so in σ_{2=2}(γ_{[1],count}(R)) at
// batch size 1 the count 2 is absent from the dictionary the first
// batch carries and present when the second batch carries it, grown.
// The cached "absent" verdict must be re-checked, or the matching row
// is dropped.
func TestVectorizedConstSelectGrowingDictionary(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	d.AddInts("R", 1, 1) // group 1 counts 1: the first batch's dictionary is {1}
	d.AddInts("R", 2, 2) // group 2 counts 2, interned after the first check
	d.AddInts("R", 2, 3)
	root := plan.NSelectConst(2, rel.Int(2), plan.NGamma([]int{1}, 0, plan.NRel("R", 2)))
	want := rel.FromRows(2, []int64{2, 2})
	for _, size := range batchSizes {
		live, _, _ := rel.BatchPoolStats()
		got := plan.CompileIR(root, d, plan.Options{BatchSize: size}).Execute()
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("size=%d: %d batches leaked", size, after-live)
		}
		if !got.Equal(want) {
			t.Fatalf("size=%d: σ_{2=2}(γ_{[1],count}(R)) = %v, want %v", size, got, want)
		}
	}
}

// TestVectorizedResultOwnership pins the result-ownership contract on
// the executor: mutating a result must not reach the database, even
// for a bare relation-name root.
func TestVectorizedResultOwnership(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	d.AddInts("R", 1, 2)
	res := onExecutor(ra.R("R", 2), d)
	res.Add(rel.Ints(9, 9))
	if d.Rel("R").Contains(rel.Ints(9, 9)) {
		t.Fatal("mutating an executor result mutated the database")
	}
	if d.Rel("R").Len() != 1 {
		t.Fatalf("database relation has %d tuples, want 1", d.Rel("R").Len())
	}
}

// TestVectorizedPoolSeparateFromResident pins the accounting split:
// the division trace reports operator state only — the candidates'
// dedup filter under the product and the outer difference's sink, each
// bounded by the candidate count — while the batches the plan moved
// live in the pool, visible as pool traffic and never as resident
// tuples.
func TestVectorizedPoolSeparateFromResident(t *testing.T) {
	d := workload.RandomDivision(4).Database()
	rel.ResetBatchPoolPeak()
	_, tr := executed(ra.DivisionExpr("R", "S"), d, 0)
	if candidates := ra.Eval(ra.NewProject([]int{1}, ra.R("R", 2)), d).Len(); tr.MaxResident > 2*candidates {
		t.Fatalf("MaxResident %d exceeds what a filter and a sink of %d candidates can hold", tr.MaxResident, candidates)
	}
	if tr.TotalTuples <= tr.MaxResident {
		t.Fatalf("flow %d not above resident %d: the workload does not separate the two", tr.TotalTuples, tr.MaxResident)
	}
	if _, peak, _ := rel.BatchPoolStats(); peak < 1 {
		t.Fatalf("expected pooled batch traffic, peak %d", peak)
	}
}

// errAbort is the injected cursor failure of the aborted-run sweep.
var errAbort = errors.New("ra_test: injected abort")

// checkAborted runs the plan under a governor over a store whose scans
// fail at row 3, asserting the abort contract at every sweep batch
// size: the injected error (when the plan pulls far enough to hit it)
// surfaces wrapped, the result is nil, and — always — the batch pool
// returns to its pre-query level.
func checkAborted(t *testing.T, name string, e ra.Expr, d rel.ReadStore) {
	t.Helper()
	for _, size := range batchSizes {
		st := faultinject.Wrap(d, faultinject.Fault{FailAfter: 3, Err: errAbort})
		live, _, _ := rel.BatchPoolStats()
		res, _, err := plan.CompileIR(plan.FromRA(e), st, plan.Options{BatchSize: size}).ExecuteTracedContext(context.Background())
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("%s size=%d: aborted run leaked %d batches", name, size, after-live)
		}
		if err != nil {
			if !errors.Is(err, errAbort) {
				t.Fatalf("%s size=%d: abort error %v does not wrap the injection", name, size, err)
			}
			if res != nil {
				t.Fatalf("%s size=%d: aborted run returned a result", name, size)
			}
		} else if res == nil {
			// Plans that short-circuit (dictionary-absent selections)
			// may finish before any scan reaches the injection row;
			// they must then have produced a real result.
			t.Fatalf("%s size=%d: nil result without error", name, size)
		}
	}
}

// TestVectorizedAbortedRunsReleasePool runs the full operator corpus
// through mid-run aborts at every sweep batch size, then re-runs the
// clean check to prove an abort storm leaves the executor (and the
// shared batch pool) fully serviceable.
func TestVectorizedAbortedRunsReleasePool(t *testing.T) {
	d := setJoinDatabase(1)
	for _, c := range operatorCorpus() {
		checkAborted(t, c.name, c.e, d)
		checkBatchInvariance(t, fmt.Sprintf("%s after aborts", c.name), c.e, d, d)
	}
	dv := workload.RandomDivision(1).Database()
	checkAborted(t, "division", ra.DivisionExpr("R", "S"), dv)
	checkBatchInvariance(t, "division after aborts", ra.DivisionExpr("R", "S"), dv, dv)
}

// dedupDatabase builds a duplicate-heavy probe workload: 50 group keys
// with dups tuples each in R, 20 join candidates per key in S, so
// π1(R) feeds the join dups duplicate probes per key.
func dedupDatabase(dups int) *rel.Database {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for a := 0; a < 50; a++ {
		for j := 0; j < dups; j++ {
			d.AddInts("R", int64(a), int64(1000+j))
		}
		for j := 0; j < 20; j++ {
			d.AddInts("S", int64(a), int64(j))
		}
	}
	return d
}

// TestDedupAutoPicksFilterOnDuplicateHeavyProbe pins the executor's
// projection dedup decision on the measured regime. The resident peak
// is the observable that tells whether the filter was inserted (its
// hash set is operator state): duplicate fan-in 40 × bucket ≈ 20
// dwarfs one resident tuple per distinct key, so on top of the join's
// 1000 build rows the plan must hold the filter's 50 distinct keys.
func TestDedupAutoPicksFilterOnDuplicateHeavyProbe(t *testing.T) {
	d := dedupDatabase(40)
	e := ra.NewJoin(ra.NewProject([]int{1}, ra.R("R", 2)), ra.Eq(1, 1), ra.R("S", 2))
	res, tr := executed(e, d, 0)
	if !res.Equal(ra.Eval(e, d)) {
		t.Fatalf("result differs from materialized")
	}
	if build, keys := d.Rel("S").Len(), 50; tr.MaxResident != build+keys {
		t.Errorf("resident %d, want the build side's %d plus the filter's %d (cost model should pick the filter)", tr.MaxResident, build, keys)
	}
	// The filter sits after the projection's flow count and before the
	// join: the projection still reports all 2000 rows, the join only
	// the 50 × 20 pairs of distinct probes.
	if proj, join := tr.Steps[1].Size, tr.Steps[3].Size; proj != d.Rel("R").Len() || join != 1000 {
		t.Errorf("projection flow %d, join flow %d; want %d and 1000", proj, join, d.Rel("R").Len())
	}
}

// TestDedupAutoSkipsFilterWhenUseless pins the regimes where the cost
// model can prove the filter buys nothing and must stay off: a
// projection keeping all columns (provably duplicate-free), and a
// projection that feeds a sink rather than a join probe.
func TestDedupAutoSkipsFilterWhenUseless(t *testing.T) {
	d := dedupDatabase(40)
	// A permutation projection is duplicate-free by construction: the
	// estimator sees every column kept and reports zero fan-in.
	probe := ra.NewJoin(ra.NewProject([]int{2, 1}, ra.R("R", 2)), ra.Eq(2, 1), ra.R("S", 2))
	if _, tr := executed(probe, d, 0); tr.MaxResident != d.Rel("S").Len() {
		t.Errorf("permutation probe: resident %d, want the build side's %d alone", tr.MaxResident, d.Rel("S").Len())
	}
	// The projection's consumer is the result sink, not a join probe:
	// duplicates cost one Add each either way, so the filter would only
	// add resident state.
	if _, tr := executed(ra.NewProject([]int{1}, ra.R("R", 2)), d, 0); tr.MaxResident != 0 {
		t.Errorf("sink-feeding projection: resident %d, want 0", tr.MaxResident)
	}
}

// TestHashJoinBuildAllocations holds the hash join's build table to a
// number of allocations logarithmic in its size: over 100 000 distinct
// keys its columns, dictionary and index grow by doubling, where a
// slice per key would make 100 000 allocations.
func TestHashJoinBuildAllocations(t *testing.T) {
	build := rel.NewRelationSized(2, 100000)
	for i := 0; i < 100000; i++ {
		build.Add(rel.Ints(int64(i), int64(i%7)))
	}
	probe := rel.FromRows(2, []int64{5, 5})
	out := 0
	allocs := testing.AllocsPerRun(1, func() {
		c := ra.NewHashJoinBatchCursor(probe.BatchScan(), build.BatchScan(), ra.EqAll([2]int{1, 1}, [2]int{2, 2}), &ra.Meter{}, rel.BatchCap)
		out = 0
		for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
			out += b.Len()
			b.Release()
		}
	})
	if out != 1 {
		t.Fatalf("join emitted %d rows, want 1", out)
	}
	t.Logf("%.0f allocations", allocs)
	if allocs > 1000 {
		t.Errorf("a hash join over 100000 distinct keys made %.0f allocations, want at most 1000", allocs)
	}
}
