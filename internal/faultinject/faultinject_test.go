package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"radiv/internal/exec"
	"radiv/internal/faultinject"
	"radiv/internal/leakcheck"
	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/xra"
)

// The suite drives the executor's governed entry point — over plans
// from each algebra, as written and rewritten — through injected
// failures and asserts the robustness contract after each abort:
//
//   - exactly one typed error that wraps the injected cause,
//   - a nil result,
//   - zero leaked goroutines (leakcheck),
//   - the source database byte-identical to before the query.

var errInjected = errors.New("faultinject: injected cursor failure")

// source is a database the suite queries and its fingerprint when it
// was built: every abort is followed by the check that the query left
// it untouched.
type source struct {
	d      *rel.Database
	before string
}

func sourceOf(d *rel.Database) source { return source{d, fingerprint(d)} }

// newSource builds the suite's shared database: sizes are chosen so
// every relation survives FailAfter/CancelAt in [1,5] and so at least
// one batch of pulls remains after any injection point — the guard
// before that pull is where a cancellation lands.
func newSource() source {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1, "T": 2}))
	for i := 0; i < 400; i++ {
		d.AddInts("R", int64(i%50), int64(i%37))
		d.AddInts("T", int64(i%23), int64(i%41))
	}
	for j := 0; j < 30; j++ {
		d.AddInts("S", int64(j))
	}
	return sourceOf(d)
}

// fingerprint renders every relation of d, tuples in insertion order.
func fingerprint(d *rel.Database) string {
	var b strings.Builder
	for _, name := range d.Schema().Names() {
		fmt.Fprintf(&b, "%s: %v\n", name, d.Rel(name).Tuples())
	}
	return b.String()
}

// requireUntouched fails unless the source still renders as it did
// when it was built.
func (src source) requireUntouched(t *testing.T, label string) {
	t.Helper()
	if fingerprint(src.d) != src.before {
		t.Fatalf("%s: the aborted query changed the source", label)
	}
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
// size and resident budget (0 = none).
func (a arm) run(ctx context.Context, d rel.ReadStore, batchSize, maxResident int) (*rel.Relation, error) {
	p := plan.CompileIR(a.root, d, plan.Options{Optimize: a.optimize, BatchSize: batchSize, MaxResident: maxResident})
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
// exactly one error wrapping want, nil result, untouched source.
func (src source) checkAborted(t *testing.T, label string, res *rel.Relation, err error, want error) {
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
	src.requireUntouched(t, label)
}

// TestInjectedCursorErrorAborts: a cursor failure at row N surfaces
// as a single wrapped error on every plan, with no result, no leaked
// goroutines and an untouched source.
func TestInjectedCursorErrorAborts(t *testing.T) {
	leakcheck.Check(t)
	src := newSource()
	for _, batchSize := range []int{1, 64} {
		for _, a := range arms(t, src.d.Schema()) {
			for _, failAfter := range []int{1, 3, 5} {
				label := fmt.Sprintf("%s/bs=%d/failAfter=%d", a.name, batchSize, failAfter)
				st := faultinject.Wrap(src.d, faultinject.Fault{FailAfter: failAfter, Err: errInjected})
				res, err := a.run(context.Background(), st, batchSize, 0)
				src.checkAborted(t, label, res, err, errInjected)
			}
		}
	}
}

// TestBudgetTripAborts: every plan aborts with *exec.BudgetError once
// its resident-tuple budget is exceeded.
func TestBudgetTripAborts(t *testing.T) {
	leakcheck.Check(t)
	src := newSource()
	for _, a := range arms(t, src.d.Schema()) {
		if a.zeroResident {
			continue
		}
		res, err := a.run(context.Background(), src.d, 16, 2)
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
		src.requireUntouched(t, a.name)
	}
	// The γ-division runs as one operator that charges the meter as
	// groups appear: with room for S's 30 values and 10 groups, the trip
	// must come inside R's scan (50 groups over 400 rows), not after it.
	for _, a := range arms(t, src.d.Schema()) {
		if a.name != "xra/gamma-division" {
			continue
		}
		st := faultinject.Wrap(src.d, faultinject.Fault{Rel: "R"})
		res, err := a.run(context.Background(), st, 16, 40)
		var be *exec.BudgetError
		if !errors.As(err, &be) || res != nil {
			t.Fatalf("%s: want a budget error and no result, got %v, %v", a.name, res, err)
		}
		if rows := st.Rows(); rows >= 400 {
			t.Errorf("%s: the budget trip came after R's scan (%d of 400 rows read)", a.name, rows)
		}
		src.requireUntouched(t, a.name+" inside R's scan")
	}
	// A θ-only join copies a stored right side that is not the in-memory
	// relation (here the wrapped R), charging the meter as it reads:
	// the trip must come within one batch of the budget, not after the
	// copy has read all of R.
	theta, err := parser.ParseRA("join[1<1](S, R)", src.d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100
	for _, bs := range []int{1, 16, 64} {
		st := faultinject.Wrap(src.d, faultinject.Fault{Rel: "R"})
		res, err := arm{root: plan.FromRA(theta)}.run(context.Background(), st, bs, budget)
		var be *exec.BudgetError
		if !errors.As(err, &be) || res != nil {
			t.Fatalf("theta-join bs=%d: want a budget error and no result, got %v, %v", bs, res, err)
		}
		if rows := st.Rows(); rows > budget+bs {
			t.Errorf("theta-join bs=%d: the budget tripped after %d of R's %d rows; want at most one batch past %d", bs, rows, src.d.Rel("R").Len(), budget)
		}
		src.requireUntouched(t, fmt.Sprintf("theta-join bs=%d", bs))
	}
}

// TestPreCanceledContext: a context canceled before the query starts
// aborts at the first guard.
func TestPreCanceledContext(t *testing.T) {
	leakcheck.Check(t)
	src := newSource()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range arms(t, src.d.Schema()) {
		res, err := a.run(ctx, src.d, 64, 0)
		src.checkAborted(t, a.name, res, err, context.Canceled)
	}
}

// TestCancelMidFlight: a cancel fired from inside the scan (at an
// exact row, via the fault hook) aborts every plan cleanly.
func TestCancelMidFlight(t *testing.T) {
	leakcheck.Check(t)
	src := newSource()
	for _, a := range arms(t, src.d.Schema()) {
		ctx, cancel := context.WithCancel(context.Background())
		st := faultinject.Wrap(src.d, faultinject.Fault{CancelAt: 5, OnRow: cancel})
		res, err := a.run(ctx, st, 32, 0)
		src.checkAborted(t, a.name, res, err, context.Canceled)
		cancel()
	}
}

// TestGovernedQueryStartsNoGoroutine: a governed query runs on the
// caller's goroutine. With a deadline on its context, every arm reads
// the goroutine count mid-query (from the CancelAt hook, which here
// cancels nothing) and must find it where it was before the call.
func TestGovernedQueryStartsNoGoroutine(t *testing.T) {
	src := newSource()
	for _, a := range arms(t, src.d.Schema()) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		mid := -1
		st := faultinject.Wrap(src.d, faultinject.Fault{CancelAt: 1, OnRow: func() { mid = runtime.NumGoroutine() }})
		before := runtime.NumGoroutine()
		_, err := a.run(ctx, st, 16, 0)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if mid != before {
			t.Errorf("%s: %d goroutines mid-query, %d before", a.name, mid, before)
		}
	}
}

// TestRandomizedAbortSuite is the seeded fuzz pass over the whole
// matrix: random plan × batch size × injection kind × injection row,
// every iteration re-asserting the abort contract, source identity
// included.
func TestRandomizedAbortSuite(t *testing.T) {
	leakcheck.Check(t)
	src := newSource()
	rng := rand.New(rand.NewSource(0x5eed))
	batchSizes := []int{1, 8, 64, 1024}
	as := arms(t, src.d.Schema())
	for iter := 0; iter < 80; iter++ {
		bs := batchSizes[rng.Intn(len(batchSizes))]
		a := as[rng.Intn(len(as))]
		k := 1 + rng.Intn(5)
		kind := rng.Intn(2)
		label := fmt.Sprintf("iter=%d/%s/bs=%d/k=%d/kind=%d", iter, a.name, bs, k, kind)
		switch kind {
		case 0: // injected cursor error
			st := faultinject.Wrap(src.d, faultinject.Fault{FailAfter: k, Err: errInjected})
			res, err := a.run(context.Background(), st, bs, 0)
			src.checkAborted(t, label, res, err, errInjected)
		case 1: // cancellation at row k
			ctx, cancel := context.WithCancel(context.Background())
			st := faultinject.Wrap(src.d, faultinject.Fault{CancelAt: k, OnRow: cancel})
			res, err := a.run(ctx, st, bs, 0)
			src.checkAborted(t, label, res, err, context.Canceled)
			cancel()
		}
	}
}

// TestCleanRunAfterAborts: after a storm of aborts the engine still
// answers correctly — the same query over the unwrapped source
// matches the materialized evaluator.
func TestCleanRunAfterAborts(t *testing.T) {
	leakcheck.Check(t)
	src := newSource()
	e, err := parser.ParseRA("join[2=1](R, S)", src.d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	a := arm{root: plan.FromRA(e)}
	for i := 0; i < 5; i++ {
		st := faultinject.Wrap(src.d, faultinject.Fault{FailAfter: 2, Err: errInjected})
		if _, err := a.run(context.Background(), st, 8, 0); !errors.Is(err, errInjected) {
			t.Fatalf("warm-up abort %d: %v", i, err)
		}
		src.requireUntouched(t, fmt.Sprintf("warm-up abort %d", i))
	}
	want := ra.Eval(e, src.d)
	got, err := a.run(context.Background(), src.d, 8, 0)
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
// the (synthetically slow) scan ran past the cancel. Beside a plain
// scan, the θ-only join and semijoin take Big as their build table,
// which a wrapped view cannot lend in place, so the table copies it:
// that copy is a scan like any other.
func TestCancellationLatencyWithinOneBatch(t *testing.T) {
	leakcheck.Check(t)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"Big": 1, "L": 1}))
	for i := 0; i < 5000; i++ {
		d.AddInts("Big", int64(i))
	}
	for i := 0; i < 10; i++ {
		d.AddInts("L", int64(i))
	}
	src := sourceOf(d)
	scan, err := parser.ParseRA("project[1](Big)", src.d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	join, err := parser.ParseRA("join[1<1](L, Big)", src.d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	semijoin, err := parser.ParseSA("semijoin[1<1](L, Big)", src.d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	queries := []arm{
		{name: "scan", root: plan.FromRA(scan)},
		{name: "theta-join", root: plan.FromRA(join)},
		{name: "theta-semijoin", root: plan.FromSA(semijoin)},
	}
	const cancelAt = 100
	for _, q := range queries {
		for _, bs := range []int{1, 64, 1024} {
			label := fmt.Sprintf("%s/bs=%d", q.name, bs)
			ctx, cancel := context.WithCancel(context.Background())
			st := faultinject.Wrap(src.d, faultinject.Fault{
				Rel:        "Big",
				CancelAt:   cancelAt,
				OnRow:      cancel,
				DelayEvery: 50,
				Delay:      100 * time.Microsecond,
			})
			res, rerr := q.run(ctx, st, bs, 0)
			src.checkAborted(t, label, res, rerr, context.Canceled)
			if extra := st.Rows() - cancelAt; extra < 0 || extra > bs {
				t.Errorf("%s: scan ran %d rows past the cancel; want at most one batch (%d)", label, extra, bs)
			}
			cancel()
		}
	}
}

// TestRowExactInjectionAborts pins injection to the row whatever the
// batch size: a wrapped scan hands a batch out in pieces that end at
// the injection row, so FailAfter k aborts with Rows() at exactly k,
// and the CancelAt hook fires with exactly k rows out and the abort
// lands before another row is pulled. Every arm scans R (400 rows)
// once; at a k beyond R's end the run is clean. k straddles every
// batch boundary.
func TestRowExactInjectionAborts(t *testing.T) {
	leakcheck.Check(t)
	src := newSource()
	rows := src.d.Rel("R").Len()
	for _, a := range arms(t, src.d.Schema()) {
		for _, bs := range []int{1, 7, 64, 1024} {
			for _, k := range []int{1, bs - 1, bs, bs + 1} {
				if k < 1 {
					continue
				}
				label := fmt.Sprintf("%s/bs=%d/k=%d", a.name, bs, k)
				fail := faultinject.Wrap(src.d, faultinject.Fault{Rel: "R", FailAfter: k, Err: errInjected})
				res, err := a.run(context.Background(), fail, bs, 0)
				if k <= rows {
					src.checkAborted(t, label+"/fail", res, err, errInjected)
					if got := fail.Rows(); got != k {
						t.Errorf("%s/fail: aborted with %d rows out, want %d", label, got, k)
					}
				} else if err != nil || fail.Rows() != rows {
					t.Errorf("%s/fail: past R's end, got err %v after %d rows", label, err, fail.Rows())
				}

				ctx, cancel := context.WithCancel(context.Background())
				fired := -1
				var cs *faultinject.Store
				cs = faultinject.Wrap(src.d, faultinject.Fault{Rel: "R", CancelAt: k, OnRow: func() {
					fired = cs.Rows()
					cancel()
				}})
				res, err = a.run(ctx, cs, bs, 0)
				cancel()
				if k <= rows {
					src.checkAborted(t, label+"/cancel", res, err, context.Canceled)
					if fired != k || cs.Rows() != k {
						t.Errorf("%s/cancel: hook fired at row %d, abort after %d rows; want both %d", label, fired, cs.Rows(), k)
					}
				} else if err != nil || fired != -1 {
					t.Errorf("%s/cancel: past R's end, got err %v, hook at %d", label, err, fired)
				}
			}
		}
	}
}

// TestFaultStoreIsTransparent: with a zero Fault the wrapper changes
// nothing — results match the unwrapped store exactly.
func TestFaultStoreIsTransparent(t *testing.T) {
	src := newSource()
	e, err := parser.ParseRA("join[2=1](R, S)", src.d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	st := faultinject.Wrap(src.d, faultinject.Fault{})
	got := plan.CompileIR(plan.FromRA(e), st, plan.Options{}).Execute()
	want := ra.Eval(e, src.d)
	if got.String() != want.String() {
		t.Fatalf("transparent wrap diverged:\n got %v\nwant %v", got, want)
	}
	if st.Rows() == 0 {
		t.Fatal("row counter did not observe the scan")
	}
}
