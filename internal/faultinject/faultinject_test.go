package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"radiv/internal/exec"
	"radiv/internal/faultinject"
	"radiv/internal/leakcheck"
	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/xra"
)

// The suite drives the executor's governed entry point — over plans
// from each algebra, as written and rewritten — through injected
// failures and asserts the robustness contract after each abort:
//
//   - exactly one typed error that wraps the injected cause,
//   - a nil result,
//   - zero pooled batches live beyond the pre-query level,
//   - zero leaked goroutines (leakcheck),
//   - the source snapshot byte-identical to before the query.

var errInjected = errors.New("faultinject: injected cursor failure")

// newSnapshot publishes the suite's shared database: sizes are chosen
// so every relation survives FailAfter/CancelAt in [1,5] and so at
// least one batch of pulls remains after any injection point — that is
// what makes the abort deterministic rather than watcher-scheduling
// dependent.
func newSnapshot() *rel.Snapshot {
	ep := rel.NewEpoch(rel.NewSchema(map[string]int{"R": 2, "S": 1, "T": 2}))
	for i := 0; i < 400; i++ {
		ep.AddInts("R", int64(i%50), int64(i%37))
		ep.AddInts("T", int64(i%23), int64(i%41))
	}
	for j := 0; j < 30; j++ {
		ep.AddInts("S", int64(j))
	}
	return ep.Publish()
}

// fingerprint renders every relation of the snapshot; the randomized
// suite compares these before and after each abort to prove aborted
// queries never touch published state.
func fingerprint(snap *rel.Snapshot) map[string]string {
	fp := make(map[string]string)
	for _, name := range snap.Schema().Names() {
		fp[name] = fmt.Sprintf("%v", snap.Rel(name))
	}
	return fp
}

// arm is one plan under test. zeroResident marks queries that
// legitimately keep no resident state (the difference consumes its
// stored subtrahend in place and defers projection dedup to the sink),
// so the resident-budget test skips them.
type arm struct {
	name         string
	root         *plan.Node
	optimize     bool
	zeroResident bool
}

// run executes the arm's plan under a governor at the given batch
// size.
func (a arm) run(ctx context.Context, d rel.ReadStore, batchSize int, lim exec.Limits) (*rel.Relation, error) {
	p := plan.CompileIR(a.root, d, plan.Options{Optimize: a.optimize, BatchSize: batchSize, Limits: lim})
	res, _, err := p.ExecuteTracedContext(ctx)
	return res, err
}

// arms builds the plans against the schema: one per algebra, plus a
// rewritten one. Except for the zeroResident arm, every query builds
// resident state (a hash side or γ groups), so the budget test trips
// on it.
func arms(t *testing.T, schema rel.Schema) []arm {
	t.Helper()
	join, err := parser.ParseRA("join[2=1](R, S)", schema)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := parser.ParseRA("diff(project[1](R), S)", schema)
	if err != nil {
		t.Fatal(err)
	}
	semijoin, err := parser.ParseSA("semijoin[2=1](R, S)", schema)
	if err != nil {
		t.Fatal(err)
	}
	return []arm{
		{name: "ra/join", root: plan.FromRA(join)},
		{name: "ra/join/optimized", root: plan.FromRA(join), optimize: true},
		{name: "ra/diff", root: plan.FromRA(diff), zeroResident: true},
		{name: "sa/semijoin", root: plan.FromSA(semijoin)},
		{name: "xra/gamma-division", root: plan.FromXRA(xra.ContainmentDivision("R", "S"))},
	}
}

// checkAborted asserts the per-abort contract shared by every test:
// exactly one error wrapping want, nil result, balanced batch pool.
func checkAborted(t *testing.T, label string, res *rel.Relation, err error, want error, liveBefore int64) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: want abort error, got nil (res=%v)", label, res)
	}
	if !errors.Is(err, want) {
		t.Fatalf("%s: error %v does not wrap %v", label, err, want)
	}
	if res != nil {
		t.Fatalf("%s: aborted query returned a result", label)
	}
	if after, _, _ := rel.BatchPoolStats(); after != liveBefore {
		t.Fatalf("%s: %d pooled batches leaked on abort", label, after-liveBefore)
	}
}

// TestInjectedCursorErrorAborts: a cursor failure at row N surfaces
// as a single wrapped error on every plan, with no result, no leaked
// batches, no leaked goroutines and an untouched snapshot.
func TestInjectedCursorErrorAborts(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	before := fingerprint(snap)
	for _, batchSize := range []int{1, 64} {
		for _, a := range arms(t, snap.Schema()) {
			for _, failAfter := range []int{1, 3, 5} {
				label := fmt.Sprintf("%s/bs=%d/failAfter=%d", a.name, batchSize, failAfter)
				st := faultinject.Wrap(snap, faultinject.Fault{FailAfter: failAfter, Err: errInjected})
				live, _, _ := rel.BatchPoolStats()
				res, err := a.run(context.Background(), st, batchSize, exec.Limits{})
				checkAborted(t, label, res, err, errInjected, live)
			}
		}
	}
	for name, fp := range fingerprint(snap) {
		if fp != before[name] {
			t.Errorf("relation %s changed across aborted queries", name)
		}
	}
}

// TestBudgetTripAborts: every plan aborts with *exec.BudgetError once
// its resident-tuple budget is exceeded, releasing all batches.
func TestBudgetTripAborts(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	for _, a := range arms(t, snap.Schema()) {
		if a.zeroResident {
			continue
		}
		live, _, _ := rel.BatchPoolStats()
		res, err := a.run(context.Background(), snap, 16, exec.Limits{MaxResident: 2})
		if err == nil {
			t.Fatalf("%s: want budget error, got nil (res=%v)", a.name, res)
		}
		var be *exec.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: error %v is not a *exec.BudgetError", a.name, err)
		}
		if res != nil {
			t.Fatalf("%s: budget-tripped query returned a result", a.name)
		}
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("%s: %d pooled batches leaked on budget trip", a.name, after-live)
		}
	}
	// The γ-division runs as one operator that charges the meter as
	// groups appear: with room for S's 30 values and 10 groups, the trip
	// must come inside R's scan (50 groups over 400 rows), not after it.
	for _, a := range arms(t, snap.Schema()) {
		if a.name != "xra/gamma-division" {
			continue
		}
		st := faultinject.Wrap(snap, faultinject.Fault{Rel: "R"})
		live, _, _ := rel.BatchPoolStats()
		res, err := a.run(context.Background(), st, 16, exec.Limits{MaxResident: 40})
		var be *exec.BudgetError
		if !errors.As(err, &be) || res != nil {
			t.Fatalf("%s: want a budget error and no result, got %v, %v", a.name, res, err)
		}
		if rows := st.Rows(); rows >= 400 {
			t.Errorf("%s: the budget trip came after R's scan (%d of 400 rows read)", a.name, rows)
		}
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("%s: %d pooled batches leaked on budget trip", a.name, after-live)
		}
	}
}

// TestPreCanceledContext: a context canceled before the query starts
// aborts at the first guard without touching the pool.
func TestPreCanceledContext(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range arms(t, snap.Schema()) {
		live, _, _ := rel.BatchPoolStats()
		res, err := a.run(ctx, snap, 64, exec.Limits{})
		checkAborted(t, a.name, res, err, context.Canceled, live)
	}
}

// TestCancelMidFlight: a cancel fired from inside the scan (at an
// exact row, via the fault hook) aborts every plan cleanly.
func TestCancelMidFlight(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	for _, a := range arms(t, snap.Schema()) {
		ctx, cancel := context.WithCancel(context.Background())
		st := faultinject.Wrap(snap, faultinject.Fault{CancelAt: 5, OnRow: cancel})
		live, _, _ := rel.BatchPoolStats()
		res, err := a.run(ctx, st, 32, exec.Limits{})
		checkAborted(t, a.name, res, err, context.Canceled, live)
		cancel()
	}
}

// TestRandomizedAbortSuite is the seeded fuzz pass over the whole
// matrix: random plan × batch size × injection kind × injection row,
// every iteration re-asserting the abort contract and, at the
// end, snapshot identity. Run under -race this doubles as the
// goroutine-join proof for the governed exchanges.
func TestRandomizedAbortSuite(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	before := fingerprint(snap)
	rng := rand.New(rand.NewSource(0x5eed))
	batchSizes := []int{1, 8, 64, 1024}
	as := arms(t, snap.Schema())
	for iter := 0; iter < 80; iter++ {
		bs := batchSizes[rng.Intn(len(batchSizes))]
		a := as[rng.Intn(len(as))]
		k := 1 + rng.Intn(5)
		kind := rng.Intn(2)
		label := fmt.Sprintf("iter=%d/%s/bs=%d/k=%d/kind=%d", iter, a.name, bs, k, kind)
		live, _, _ := rel.BatchPoolStats()
		switch kind {
		case 0: // injected cursor error
			st := faultinject.Wrap(snap, faultinject.Fault{FailAfter: k, Err: errInjected})
			res, err := a.run(context.Background(), st, bs, exec.Limits{})
			checkAborted(t, label, res, err, errInjected, live)
		case 1: // cancellation at row k
			ctx, cancel := context.WithCancel(context.Background())
			st := faultinject.Wrap(snap, faultinject.Fault{CancelAt: k, OnRow: cancel})
			res, err := a.run(ctx, st, bs, exec.Limits{})
			checkAborted(t, label, res, err, context.Canceled, live)
			cancel()
		}
	}
	for name, fp := range fingerprint(snap) {
		if fp != before[name] {
			t.Errorf("relation %s changed across the randomized abort suite", name)
		}
	}
}

// TestCleanRunAfterAborts: after a storm of aborts the engine still
// answers correctly — the same query over the unwrapped snapshot
// matches the materialized evaluator.
func TestCleanRunAfterAborts(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	e, err := parser.ParseRA("join[2=1](R, S)", snap.Schema())
	if err != nil {
		t.Fatal(err)
	}
	a := arm{root: plan.FromRA(e)}
	for i := 0; i < 5; i++ {
		st := faultinject.Wrap(snap, faultinject.Fault{FailAfter: 2, Err: errInjected})
		if _, err := a.run(context.Background(), st, 8, exec.Limits{}); !errors.Is(err, errInjected) {
			t.Fatalf("warm-up abort %d: %v", i, err)
		}
	}
	want := ra.Eval(e, snap)
	got, err := a.run(context.Background(), snap, 8, exec.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("post-abort run diverged:\n got %v\nwant %v", got, want)
	}
}

// TestCancellationLatencyWithinOneBatch pins the cancellation-latency
// contract: a cancel fired mid-scan is observed within one batch
// boundary — the scan yields at most one
// batch of rows past the cancellation point — at batch sizes 1, 64
// and 1024. The fault store's row counter measures exactly how far
// the (synthetically slow) scan ran past the cancel.
func TestCancellationLatencyWithinOneBatch(t *testing.T) {
	leakcheck.Check(t)
	ep := rel.NewEpoch(rel.NewSchema(map[string]int{"Big": 1}))
	for i := 0; i < 5000; i++ {
		ep.AddInts("Big", int64(i))
	}
	snap := ep.Publish()
	e, err := parser.ParseRA("project[1](Big)", snap.Schema())
	if err != nil {
		t.Fatal(err)
	}
	const cancelAt = 100
	for _, bs := range []int{1, 64, 1024} {
		ctx, cancel := context.WithCancel(context.Background())
		st := faultinject.Wrap(snap, faultinject.Fault{
			CancelAt:   cancelAt,
			OnRow:      cancel,
			DelayEvery: 50,
			Delay:      100 * time.Microsecond,
		})
		live, _, _ := rel.BatchPoolStats()
		res, rerr := arm{root: plan.FromRA(e)}.run(ctx, st, bs, exec.Limits{})
		checkAborted(t, fmt.Sprintf("bs=%d", bs), res, rerr, context.Canceled, live)
		if extra := st.Rows() - cancelAt; extra < 0 || extra > bs {
			t.Errorf("bs=%d: scan ran %d rows past the cancel; want at most one batch (%d)", bs, extra, bs)
		}
		cancel()
	}
}

// TestRowExactInjectionAborts pins injection to the row whatever the
// batch size: a wrapped scan hands a batch out in pieces that end at
// the injection row, so FailAfter k aborts with Rows() at exactly k,
// and the CancelAt hook fires with exactly k rows out and the abort
// lands before another row is pulled. Every arm scans R (400 rows)
// once; at a k beyond R's end the run is clean. k straddles every
// batch boundary, on a rel.Snapshot and on a 2-shard shard.Snapshot,
// whose scans switch dictionaries mid-stream.
func TestRowExactInjectionAborts(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	rows := snap.Rel("R").Len()
	stores := []struct {
		name string
		d    rel.ReadStore
	}{
		{"rel.Snapshot", snap},
		{"shard.Snapshot/2", shard.FromStore(snap, 2).Snapshot()},
	}
	for _, s := range stores {
		for _, a := range arms(t, s.d.Schema()) {
			for _, bs := range []int{1, 7, 64, 1024} {
				for _, k := range []int{1, bs - 1, bs, bs + 1} {
					if k < 1 {
						continue
					}
					label := fmt.Sprintf("%s/%s/bs=%d/k=%d", s.name, a.name, bs, k)
					live, _, _ := rel.BatchPoolStats()
					fail := faultinject.Wrap(s.d, faultinject.Fault{Rel: "R", FailAfter: k, Err: errInjected})
					res, err := a.run(context.Background(), fail, bs, exec.Limits{})
					if k <= rows {
						checkAborted(t, label+"/fail", res, err, errInjected, live)
						if got := fail.Rows(); got != k {
							t.Errorf("%s/fail: aborted with %d rows out, want %d", label, got, k)
						}
					} else if err != nil || fail.Rows() != rows {
						t.Errorf("%s/fail: past R's end, got err %v after %d rows", label, err, fail.Rows())
					}

					ctx, cancel := context.WithCancel(context.Background())
					fired := -1
					var cs *faultinject.Store
					cs = faultinject.Wrap(s.d, faultinject.Fault{Rel: "R", CancelAt: k, OnRow: func() {
						fired = cs.Rows()
						cancel()
					}})
					res, err = a.run(ctx, cs, bs, exec.Limits{})
					cancel()
					if k <= rows {
						checkAborted(t, label+"/cancel", res, err, context.Canceled, live)
						if fired != k || cs.Rows() != k {
							t.Errorf("%s/cancel: hook fired at row %d, abort after %d rows; want both %d", label, fired, cs.Rows(), k)
						}
					} else if err != nil || fired != -1 {
						t.Errorf("%s/cancel: past R's end, got err %v, hook at %d", label, err, fired)
					}
					if after, _, _ := rel.BatchPoolStats(); after != live {
						t.Fatalf("%s: %d pooled batches live", label, after-live)
					}
				}
			}
		}
	}
}

// TestFaultStoreIsTransparent: with a zero Fault the wrapper changes
// nothing — results match the unwrapped store exactly.
func TestFaultStoreIsTransparent(t *testing.T) {
	snap := newSnapshot()
	e, err := parser.ParseRA("join[2=1](R, S)", snap.Schema())
	if err != nil {
		t.Fatal(err)
	}
	st := faultinject.Wrap(snap, faultinject.Fault{})
	got := plan.CompileIR(plan.FromRA(e), st, plan.Options{}).Execute()
	want := ra.Eval(e, snap)
	if got.String() != want.String() {
		t.Fatalf("transparent wrap diverged:\n got %v\nwant %v", got, want)
	}
	if st.Rows() == 0 {
		t.Fatal("row counter did not observe the scan")
	}
}
