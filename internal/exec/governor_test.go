package exec_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// TestNilGovernorIsUngoverned: every method of a nil *Governor is a
// no-op, so legacy entry points can thread nil everywhere.
func TestNilGovernorIsUngoverned(t *testing.T) {
	var g *exec.Governor
	g.Check()
	g.CheckResident(1 << 30)
	g.Abort(errors.New("ignored"))
	if g.Err() != nil {
		t.Error("nil governor has an error")
	}
	g.OnAbort(func() { t.Error("cleanup ran on nil governor") })
	g.Watch(nil)
}

// TestNilGovernorRecoverConvertsPanics: even without a governor,
// Recover turns a panic into a typed error at the boundary.
func TestNilGovernorRecoverConvertsPanics(t *testing.T) {
	boom := errors.New("scan exploded")
	err := func() (err error) {
		var g *exec.Governor
		defer g.Recover(&err)
		panic(boom)
	}()
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("PanicError %v does not unwrap to the panic value", err)
	}
}

// TestAbortFirstWins: the first recorded cause survives later aborts.
func TestAbortFirstWins(t *testing.T) {
	first := errors.New("first failure")
	g := exec.NewGovernor(nil, exec.Limits{})
	g.Abort(first)
	g.Abort(errors.New("second failure"))
	if g.Err() == nil {
		t.Fatal("governor not aborted")
	}
	if !errors.Is(g.Err(), first) {
		t.Fatalf("cause %v is not the first abort", g.Err())
	}
	var err error
	func() { defer g.Recover(&err) }()
	if !errors.Is(err, first) {
		t.Fatalf("boundary error %v is not the first abort", err)
	}
}

// TestCheckThrowsAfterAbort: a guard observing an aborted governor
// unwinds with the recorded cause.
func TestCheckThrowsAfterAbort(t *testing.T) {
	boom := errors.New("aborted elsewhere")
	err := func() (err error) {
		g := exec.NewGovernor(nil, exec.Limits{})
		defer g.Recover(&err)
		g.Abort(boom)
		g.Check()
		t.Error("Check returned after abort")
		return nil
	}()
	if !errors.Is(err, boom) {
		t.Fatalf("want %v, got %v", boom, err)
	}
}

// TestThrowUnwindsToBoundary: exec.Throw records the cause and
// unwinds only as far as the deferred Recover.
func TestThrowUnwindsToBoundary(t *testing.T) {
	boom := errors.New("thrown")
	err := func() (err error) {
		g := exec.NewGovernor(nil, exec.Limits{})
		defer g.Recover(&err)
		exec.Throw(g, boom)
		return nil
	}()
	if !errors.Is(err, boom) {
		t.Fatalf("want %v, got %v", boom, err)
	}
}

// TestResidentBudget: CheckResident trips exactly past the limit with
// a typed, inspectable BudgetError.
func TestResidentBudget(t *testing.T) {
	err := func() (err error) {
		g := exec.NewGovernor(nil, exec.Limits{MaxResident: 10})
		defer g.Recover(&err)
		g.CheckResident(10) // at the limit: fine
		g.CheckResident(11) // past it: throws
		t.Error("CheckResident(11) returned")
		return nil
	}()
	var be *exec.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Resource != "resident tuples" || be.Limit != 10 || be.Used != 11 {
		t.Fatalf("wrong budget fields: %+v", be)
	}
}

// TestLiveBatchBudget: Check trips when pooled batches above the
// creation-time baseline exceed the limit.
func TestLiveBatchBudget(t *testing.T) {
	var held []*rel.Batch
	defer func() {
		for _, b := range held {
			b.Release()
		}
	}()
	err := func() (err error) {
		g := exec.NewGovernor(nil, exec.Limits{MaxLiveBatches: 2})
		defer g.Recover(&err)
		for i := 0; i < 3; i++ {
			held = append(held, rel.NewBatch(1))
		}
		g.Check()
		t.Error("Check returned past the live-batch budget")
		return nil
	}()
	var be *exec.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Resource != "pooled batches" {
		t.Fatalf("wrong resource: %+v", be)
	}
}

// TestCanceledContext: Check observes context cancellation
// synchronously and the boundary error wraps context.Canceled.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := func() (err error) {
		g := exec.NewGovernor(ctx, exec.Limits{})
		defer g.Recover(&err)
		g.Check() // not canceled yet
		cancel()
		g.Check()
		t.Error("Check returned after cancel")
		return nil
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestWatcherAbortsBlockedQuery: the watcher goroutine converts a
// cancel into an abort even when no guard is running.
func TestWatcherAbortsBlockedQuery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := exec.NewGovernor(ctx, exec.Limits{})
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for g.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("watcher never aborted the query after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	var err error
	func() { defer g.Recover(&err) }()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCleanupsReverseOrderOnce: OnAbort cleanups run at the boundary
// in reverse registration order, exactly once even if the governor is
// recovered twice.
func TestCleanupsReverseOrderOnce(t *testing.T) {
	g := exec.NewGovernor(nil, exec.Limits{})
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		g.OnAbort(func() { order = append(order, i) })
	}
	var err error
	func() { defer g.Recover(&err) }()
	func() { defer g.Recover(&err) }()
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("cleanups ran %v; want [2 1 0]", order)
	}
}

// heldRelease implements rel.BatchHolder for the Watch test.
type heldRelease struct{ n int }

func (h *heldRelease) ReleaseHeld() { h.n++ }

// TestWatchRegistersBatchHolders: Watch hooks a BatchHolder's release
// into the boundary cleanups and ignores everything else.
func TestWatchRegistersBatchHolders(t *testing.T) {
	g := exec.NewGovernor(nil, exec.Limits{})
	h := &heldRelease{}
	g.Watch(h)
	g.Watch(42)  // not a holder: ignored
	g.Watch(nil) // ignored
	var err error
	func() { defer g.Recover(&err) }()
	if h.n != 1 {
		t.Fatalf("ReleaseHeld ran %d times; want 1", h.n)
	}
}

// TestRecoverPanicBoundary: the governor-free boundary handler for
// the materialized evaluators.
func TestRecoverPanicBoundary(t *testing.T) {
	err := func() (err error) {
		defer exec.RecoverPanic(&err)
		panic("ra: join arity mismatch")
	}()
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Unwrap() != nil {
		t.Error("string panic should not unwrap to an error")
	}
}

// TestSuccessfulRecoverYieldsNil: a clean run leaves *errp nil.
func TestSuccessfulRecoverYieldsNil(t *testing.T) {
	err := func() (err error) {
		g := exec.NewGovernor(context.Background(), exec.Limits{})
		defer g.Recover(&err)
		g.Check()
		g.CheckResident(0)
		return nil
	}()
	if err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}
