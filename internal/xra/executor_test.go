package xra_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"radiv/internal/faultinject"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/stats"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// This file holds extended-algebra expressions to the executor in
// internal/plan — the only thing that runs a cursor tree, over its own
// batch operators (γ among them); this package holds the semantics
// they are checked against. The full crossing of corpora, rewrites,
// stores and governors is internal/plan's executor suite; what lives
// here are the properties stated about γ in particular: exact counts
// over duplicate-capable inputs, the linear resident footprint of the
// Section 5 division and its scaling, γ's allocation profile,
// batch-size and backend invariance of results and traces, and the
// abort contract.
//
// The test names predate the single executor and are pinned by the
// repository's test floor: Streamed* tests hold the executor to the
// materialized evaluator, and Vectorized* tests sweep the batch size.

// executed runs e as written on the executor at the given batch size
// (0 = the default).
func executed(e xra.Expr, d rel.ReadStore, batch int) (*rel.Relation, *plan.Trace) {
	return plan.CompileIR(plan.FromXRA(e), d, plan.Options{BatchSize: batch}).ExecuteTraced()
}

// setJoinDatabase wraps a RandomSetJoin draw into a database over
// {R/2, S/2}.
func setJoinDatabase(seed int64) *rel.Database {
	r, s := workload.RandomSetJoin(seed).Generate()
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, tp := range r.Tuples() {
		d.Add("R", tp)
	}
	for _, tp := range s.Tuples() {
		d.Add("S", tp)
	}
	return d
}

// checkAgainstMaterialized runs the materialized evaluator and the
// executor and verifies identical results, the materialized trace's
// step order (wrapped RA steps included), and the structural resident
// invariant; strict additionally asserts the linear-resident property
// against both flow counts and materialized intermediates.
func checkAgainstMaterialized(t *testing.T, name string, e xra.Expr, d *rel.Database, strict bool) {
	t.Helper()
	mat, mt := xra.EvalTraced(e, d)
	got, tr := executed(e, d, 0)
	if !mat.Equal(got) {
		t.Fatalf("%s: executor result differs from materialized\nmaterialized:\n%s\nexecutor:\n%s", name, mat, got)
	}
	if len(mt.Steps) != len(tr.Steps) {
		t.Fatalf("%s: step counts differ: materialized %d, executor %d", name, len(mt.Steps), len(tr.Steps))
	}
	for i := range mt.Steps {
		if mt.Steps[i].Label != tr.Steps[i].Label {
			t.Errorf("%s: step %d: materialized %s, executor %s", name, i, mt.Steps[i].Label, tr.Steps[i].Label)
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

// TestStreamedGammaDivisionEquivalence sweeps the Section 5 division
// expressions over randomized division workloads. The γ-plans stack a
// join build side under the γ accumulator (the accumulator fills while
// the build is still held), so the per-trace guarantee is the
// structural bound; the scaling claim — resident grows linearly — is
// TestStreamedResidentLinear's and experiment ST2's.
func TestStreamedGammaDivisionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkAgainstMaterialized(t, fmt.Sprintf("containment seed %d", seed), xra.ContainmentDivision("R", "S"), d, false)
		checkAgainstMaterialized(t, fmt.Sprintf("equality seed %d", seed), xra.EqualityDivision("R", "S"), d, false)
	}
}

// operatorCorpus is the extended algebra's operators — γ in every
// configuration (count(*), count distinct, grand aggregate, one and two
// key columns, γ over a dedup-deferring projection), joins across
// keying strategies, projections, wrapped RA subexpressions including
// blocking sinks — over {R/2, S/2}.
func operatorCorpus() []struct {
	name   string
	e      xra.Expr
	strict bool
} {
	r2 := &xra.Wrap{E: ra.R("R", 2)}
	s2 := &xra.Wrap{E: ra.R("S", 2)}
	return []struct {
		name   string
		e      xra.Expr
		strict bool
	}{
		{"wrap-stored", r2, true},
		{"wrap-union", &xra.Wrap{E: ra.NewUnion(ra.R("R", 2), ra.R("S", 2))}, false},
		{"wrap-diff", &xra.Wrap{E: ra.NewDiff(ra.R("R", 2), ra.R("S", 2))}, true},
		{"project", xra.NewProject([]int{2, 1}, r2), true},
		{"project-dup", xra.NewProject([]int{1, 1}, r2), true},
		// count(*) over a duplicate-free input holds one entry per
		// group — strictly below its flow. count-distinct gammas and
		// count(*) over a dedup-deferring projection hold one entry per
		// distinct (group, value) pair or input tuple on top of the
		// groups, which can exceed the largest single flow, so those
		// carry the structural bound only.
		{"gamma-star", xra.NewGamma([]int{1}, 0, r2), true},
		{"gamma-star-dedup", xra.NewGamma([]int{1}, 0, &xra.Wrap{E: ra.NewProject([]int{2, 1}, ra.R("R", 2))}), false},
		{"gamma-distinct", xra.NewGamma([]int{1}, 2, r2), false},
		{"gamma-grand", xra.NewGamma(nil, 1, r2), false},
		{"gamma-grand-star", xra.NewGamma(nil, 0, r2), true},
		{"gamma-over-project", xra.NewGamma([]int{1}, 0, xra.NewProject([]int{2, 1}, r2)), false},
		{"gamma-multi-key", xra.NewGamma([]int{2, 1}, 0, r2), true},
		{"gamma-two-cols", xra.NewGamma([]int{2, 1}, 1, r2), false},
		{"join-eq1", xra.NewJoin(r2, ra.Eq(2, 1), s2), true},
		{"join-eq2", xra.NewJoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2), true},
		{"join-residual", xra.NewJoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2), true},
		{"join-theta-wrapped-stored", xra.NewJoin(r2, ra.Lt(2, 1), s2), true},
		{"join-theta-computed", xra.NewJoin(r2, ra.Lt(2, 1), xra.NewProject([]int{1, 2}, s2)), true},
		{"product", xra.NewJoin(r2, nil, s2), true},
		{"gamma-of-join", xra.NewGamma([]int{1}, 3, xra.NewJoin(r2, ra.Eq(2, 1), s2)), false},
		{"project-of-gamma", xra.NewProject([]int{2}, xra.NewGamma([]int{1}, 2, r2)), false},
		{"project-gamma-join", xra.NewProject([]int{1}, xra.NewGamma([]int{1}, 3, xra.NewJoin(r2, ra.Eq(2, 1), s2))), false},
		// A difference streams its left input undeduped, so count(*)
		// over a wrapped diff-of-projection must full-tuple dedup.
		{"gamma-star-over-wrapped-diff", xra.NewGamma([]int{1}, 0,
			&xra.Wrap{E: ra.NewDiff(ra.NewProject([]int{1}, ra.R("R", 2)), ra.NewProject([]int{1}, ra.R("S", 2)))}), false},
	}
}

// corpusSeeds are the RandomSetJoin draws the corpus runs on, picked
// small: the corpus has a quadratic product.
var corpusSeeds = []int64{1, 3, 5, 6, 8, 10, 12, 15, 18}

// TestStreamedOperatorCorpus differentially tests the corpus against
// the materialized evaluator.
func TestStreamedOperatorCorpus(t *testing.T) {
	for _, seed := range corpusSeeds {
		d := setJoinDatabase(seed)
		for _, c := range operatorCorpus() {
			checkAgainstMaterialized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, c.strict)
		}
	}
}

// TestStreamedResidentLinear is the Section 5 memory claim: on the
// growing division family, the γ-division plan's resident peak grows
// linearly with the database, like its flow — while the pure-RA
// division expression's *flow* is provably quadratic on the same
// inputs (see ra's executor tests for that half).
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
	e := xra.ContainmentDivision("R", "S")
	var sizes, resident []float64
	for _, n := range []int{64, 128, 256, 512} {
		d := gen(n)
		_, tr := executed(e, d, 0)
		sizes = append(sizes, float64(d.Size()))
		resident = append(resident, float64(tr.MaxResident))
	}
	if p := stats.GrowthExponent(sizes, resident); p > 1.3 {
		t.Errorf("γ-division resident exponent %.2f, want ~linear", p)
	}
}

// TestStreamedGammaCountOverWrappedDiff is the focused regression for
// the duplicate analysis: the difference cursor streams its left input
// undeduped, so π1(R) − S can emit the same tuple twice and a count(*)
// over it must deduplicate to stay exact. R = {(1,10), (1,11)} projects
// to two copies of (1); the diff passes both; the correct count is 1.
func TestStreamedGammaCountOverWrappedDiff(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	d.AddInts("R", 1, 10)
	d.AddInts("R", 1, 11)
	d.AddInts("S", 99)
	e := xra.NewGamma([]int{1}, 0, &xra.Wrap{E: ra.NewDiff(ra.NewProject([]int{1}, ra.R("R", 2)), ra.R("S", 1))})
	want := xra.Eval(e, d)
	got, _ := executed(e, d, 0)
	if !got.Equal(want) {
		t.Fatalf("γ over wrapped diff = %v, want %v", got, want)
	}
	if !want.Contains(rel.Ints(1, 1)) {
		t.Fatalf("materialized oracle wrong: %v", want)
	}
}

// batchSizes is the batch-size sweep: degenerate single-row batches, a
// tiny batch, and the default capacity.
var batchSizes = []int{1, 2, 1024}

// checkBatchInvariance runs the plan at every sweep batch size over
// store and asserts what batching must not change: the result (the
// materialized evaluation over d, which holds the same data), the
// per-step flow counts and the resident peak.
func checkBatchInvariance(t *testing.T, name string, e xra.Expr, d *rel.Database, store rel.ReadStore) {
	t.Helper()
	want := xra.Eval(e, d)
	var first *plan.Trace
	for _, size := range batchSizes {
		got, tr := executed(e, store, size)
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

// TestVectorizedXRACorpus: every corpus plan, on randomized databases,
// is invariant under the batch size.
func TestVectorizedXRACorpus(t *testing.T) {
	for _, seed := range corpusSeeds[:6] {
		d := setJoinDatabase(seed)
		for _, c := range operatorCorpus() {
			checkBatchInvariance(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, d)
		}
	}
}

// TestVectorizedGammaDivision sweeps randomized division workloads
// through the Section 5 γ-division expressions at every sweep batch
// size.
func TestVectorizedGammaDivision(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkBatchInvariance(t, fmt.Sprintf("containment seed %d", seed), xra.ContainmentDivision("R", "S"), d, d)
		checkBatchInvariance(t, fmt.Sprintf("equality seed %d", seed), xra.EqualityDivision("R", "S"), d, d)
	}
}

// TestVectorizedGammaEmpty pins the SQL-style zero row of the grand
// aggregate over an empty input, and the empty grouped aggregate.
func TestVectorizedGammaEmpty(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	r2 := &xra.Wrap{E: ra.R("R", 2)}
	checkBatchInvariance(t, "grand-empty", xra.NewGamma(nil, 1, r2), d, d)
	checkBatchInvariance(t, "grouped-empty", xra.NewGamma([]int{1}, 0, r2), d, d)
	if got, _ := executed(xra.NewGamma(nil, 1, r2), d, 0); !got.Contains(rel.Ints(0)) {
		t.Errorf("grand aggregate over an empty input = %v, want the zero row", got)
	}
}

// errAbort is the injected cursor failure of the aborted-run sweep.
var errAbort = errors.New("xra_test: injected abort")

// TestVectorizedXRAAbortedRunsStayServiceable: under a governor, over a
// store whose scans fail at row 3, every corpus plan at every sweep
// batch size surfaces the injected error (when it pulls far enough to
// reach it) and returns no result — and the executor stays
// serviceable.
func TestVectorizedXRAAbortedRunsStayServiceable(t *testing.T) {
	d := setJoinDatabase(1)
	for _, c := range operatorCorpus() {
		for _, size := range batchSizes {
			st := faultinject.Wrap(d, faultinject.Fault{FailAfter: 3, Err: errAbort})
			res, _, err := plan.CompileIR(plan.FromXRA(c.e), st, plan.Options{BatchSize: size}).ExecuteTracedContext(context.Background())
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

// allocatedBytes returns the bytes f allocates (live or not).
func allocatedBytes(f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestVectorizedGammaAllocations pins γ's allocation profile: at fixed
// rows per group, the bytes a γ plan allocates are proportional to the
// group count — no index is recopied per new group, and no per-group
// structure is sized by the counted-value dictionary. The group counts
// are powers of two, so at both every row index (the groups', the
// counted pairs', the result's) has just filled its buckets, one per
// row, and is one row short of doubling, and the counted pairs'
// columns, the largest that append grows, sit at the same point between
// append's growth steps (capacity 1/16 over length at 65 536 and
// 131 072 rows): the ratio then reads linearity, not where the two
// sizes fall between growth steps.
func TestVectorizedGammaAllocations(t *testing.T) {
	const rowsPerGroup = 4
	database := func(groups int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"G": 3}))
		for g := 0; g < groups; g++ {
			for j := 0; j < rowsPerGroup; j++ {
				// Every counted value is new to the value dictionary.
				d.AddInts("G", int64(g), int64(g%97), int64(g*rowsPerGroup+j))
			}
		}
		return d
	}
	g3 := &xra.Wrap{E: ra.R("G", 3)}
	for _, c := range []struct {
		name string
		e    xra.Expr
	}{
		{"one-column key, count(*)", xra.NewGamma([]int{1}, 0, g3)},
		{"one-column key, count(col)", xra.NewGamma([]int{1}, 3, g3)},
		{"two-column key, count(*)", xra.NewGamma([]int{1, 2}, 0, g3)},
		{"two-column key, count(col)", xra.NewGamma([]int{1, 2}, 3, g3)},
	} {
		const groups = 1 << 14
		small, large := database(groups), database(2*groups)
		run := func(d *rel.Database, want int) func() {
			return func() {
				if got, _ := executed(c.e, d, 0); got.Len() != want {
					t.Fatalf("%s: %d groups, want %d", c.name, got.Len(), want)
				}
			}
		}
		base := allocatedBytes(run(small, groups))
		doubled := allocatedBytes(run(large, 2*groups))
		if doubled > 2.2*base {
			t.Errorf("%s: %.0f bytes at %d groups, %.0f at %d (×%.2f); want at most ×2.2",
				c.name, base, groups, doubled, 2*groups, doubled/base)
		}
	}
}

// TestVectorizedGammaMemoryIsMetered runs the γ-division on a hostile
// shape — many small groups whose counted values range over a divisor
// as large as the group count — and requires the bytes allocated to be
// bounded by the resident entries the meter (and so a governor's
// MaxResident budget) saw.
func TestVectorizedGammaMemoryIsMetered(t *testing.T) {
	const groups = 8000
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for g := 0; g < groups; g++ {
		d.AddInts("R", int64(g), int64(2*g%groups))
		d.AddInts("R", int64(g), int64((2*g+1)%groups))
		d.AddInts("S", int64(g))
	}
	var tr *plan.Trace
	bytes := allocatedBytes(func() { _, tr = executed(xra.ContainmentDivision("R", "S"), d, 0) })
	if perEntry := bytes / float64(tr.MaxResident); perEntry > 400 {
		t.Errorf("%.0f bytes allocated for %d metered resident entries (%.0f B/entry); want at most 400",
			bytes, tr.MaxResident, perEntry)
	}
}
