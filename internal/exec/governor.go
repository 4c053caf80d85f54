// Package exec provides the fault-tolerance substrate for query
// execution: per-query cancellation, resource budgets, and the
// panic-to-error boundary protocol shared by every evaluator.
//
// The engine's internals keep their panic discipline (package-prefixed
// panics on programming errors); exec adds a second, *recoverable*
// kind of unwinding — the abort panic — raised only at pull
// boundaries by guard cursors and exchange loops, where the
// pull-before-hold idiom guarantees the panicking frame owns no
// pooled batch. Cursors that do retain pooled batches across calls
// register a cleanup with the query's Governor at construction time;
// the boundary recovery (Governor.Recover) runs those cleanups after
// all worker goroutines have joined, so every abort path releases
// every pooled batch exactly once.
//
// A nil *Governor is valid everywhere and means "ungoverned": every
// method is a no-op, so legacy entry points pay nothing.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"radiv/internal/rel"
)

// Limits bounds a single query's resource use. Zero values mean
// unlimited.
type Limits struct {
	// MaxResident caps the evaluator's resident-tuple count as
	// tracked by the live ra.Meter. Enforcement happens at pull
	// boundaries, so a query may overshoot by at most one batch of
	// growth before aborting.
	MaxResident int
	// MaxLiveBatches caps the number of pooled rel.Batch values live
	// above the pool's level when the Governor was created.
	MaxLiveBatches int64
}

// BudgetError is returned (wrapped) when a query exceeds one of its
// Limits.
type BudgetError struct {
	Resource string // "resident tuples" or "pooled batches"
	Limit    int64
	Used     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("exec: %s budget exceeded: %d > %d", e.Resource, e.Used, e.Limit)
}

// PanicError wraps a non-abort panic recovered at an evaluator
// boundary. Unwrap exposes the panic value when it is itself an
// error, so injected fault errors stay reachable through errors.Is.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: evaluator panic: %v", e.Value)
}

func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// abortPanic is the unwinding vehicle for a governed abort. Only
// Throw raises it and only Recover catches it.
type abortPanic struct{ err error }

// Governor coordinates one query's cancellation, budgets, and abort
// cleanup. Create with NewGovernor, share it across every goroutine
// the query spawns (Abort and Check are safe from workers), and
// close the query out with a deferred Recover at the API boundary.
type Governor struct {
	ctx      context.Context
	ctxDone  <-chan struct{} // ctx.Done(), checked synchronously in Check
	limits   Limits
	baseLive int64 // pooled-batch live count at creation

	quit chan struct{} // closed on abort or finish; Aborted, Check and the ctx watcher read it

	mu       sync.Mutex
	cause    error
	closed   bool
	finished bool
	cleanups []func()
}

// NewGovernor builds a Governor for one query. A nil ctx is treated
// as context.Background(). If ctx is cancellable, a watcher
// goroutine converts its cancellation into an Abort; the watcher
// exits when the query finishes.
func NewGovernor(ctx context.Context, limits Limits) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	live, _, _ := rel.BatchPoolStats()
	g := &Governor{ctx: ctx, ctxDone: ctx.Done(), limits: limits, baseLive: live, quit: make(chan struct{})}
	if g.ctxDone != nil {
		// The watcher converts cancellation into an abort even while
		// every evaluator goroutine is blocked on a channel (guards
		// also observe ctxDone synchronously, which is what bounds
		// cancellation latency to one batch on the pull path).
		go func() {
			select {
			case <-g.ctxDone:
				g.Abort(fmt.Errorf("exec: query canceled: %w", context.Cause(ctx)))
			case <-g.quit:
			}
		}()
	}
	return g
}

// Abort records err as the query's failure cause (first call wins)
// and closes the quit channel Aborted and Check observe. Safe to call
// from any goroutine, any number of times.
func (g *Governor) Abort(err error) {
	if g == nil || err == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cause == nil {
		g.cause = err
	}
	if !g.closed {
		g.closed = true
		close(g.quit)
	}
}

// Aborted reports whether the query has been aborted.
func (g *Governor) Aborted() bool {
	if g == nil {
		return false
	}
	select {
	case <-g.quit:
		return g.Err() != nil
	default:
		return false
	}
}

// Err returns the abort cause, or nil.
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cause
}

// Check is the per-pull guard: it throws the abort cause if the
// query was aborted (or its context canceled) and enforces the
// pooled-batch budget. Call it only at pull boundaries, where the
// calling frame holds no pooled batch.
func (g *Governor) Check() {
	if g == nil {
		return
	}
	select {
	case <-g.quit:
		err := g.Err()
		if err == nil {
			err = errors.New("exec: query aborted")
		}
		panic(abortPanic{err})
	case <-g.ctxDone:
		// Observed synchronously (not only via the watcher goroutine)
		// so cancellation latency is bounded by the guard stride — one
		// batch on the batch path — rather than by scheduling.
		Throw(g, fmt.Errorf("exec: query canceled: %w", context.Cause(g.ctx)))
	default:
	}
	if g.limits.MaxLiveBatches > 0 {
		live, _, _ := rel.BatchPoolStats()
		if used := live - g.baseLive; used > g.limits.MaxLiveBatches {
			Throw(g, &BudgetError{Resource: "pooled batches", Limit: g.limits.MaxLiveBatches, Used: used})
		}
	}
}

// CheckResident enforces the resident-tuple budget against the live
// meter value. Like Check, call only at pull boundaries.
func (g *Governor) CheckResident(cur int) {
	if g == nil {
		return
	}
	if g.limits.MaxResident > 0 && cur > g.limits.MaxResident {
		Throw(g, &BudgetError{Resource: "resident tuples", Limit: int64(g.limits.MaxResident), Used: int64(cur)})
	}
}

// OnAbort registers f to run when the query's boundary recovery
// fires. Cursors that hold pooled batches across calls register
// their release here at construction; cleanups run on the boundary
// goroutine after all workers have joined, in reverse registration
// order. They also run on success, where released cursors have nil
// fields and the calls are no-ops.
func (g *Governor) OnAbort(f func()) {
	if g == nil || f == nil {
		return
	}
	g.mu.Lock()
	g.cleanups = append(g.cleanups, f)
	g.mu.Unlock()
}

// Watch registers c's held-batch release with OnAbort when c retains
// pooled batches across calls (implements rel.BatchHolder).
func (g *Governor) Watch(c any) {
	if g == nil {
		return
	}
	if h, ok := c.(rel.BatchHolder); ok {
		g.OnAbort(h.ReleaseHeld)
	}
}

// AbortRecovered records a panic value recovered on a worker
// goroutine: an abort panic contributes its cause (usually the one
// already recorded), anything else becomes a *PanicError. Unlike
// Recover it runs no cleanups — those belong to the boundary
// goroutine after workers have joined.
func (g *Governor) AbortRecovered(r any) {
	if g == nil || r == nil {
		return
	}
	if ap, ok := r.(abortPanic); ok {
		g.Abort(ap.err)
		return
	}
	g.Abort(&PanicError{Value: r, Stack: debug.Stack()})
}

// Throw aborts the query with err and unwinds with an abort panic
// that only Governor.Recover catches. The abort is recorded first so
// concurrent workers observe Done before the stack unwinds.
func Throw(g *Governor, err error) {
	g.Abort(err)
	panic(abortPanic{err})
}

// RecoverPanic is the governor-free boundary handler for the
// materialized evaluators: it converts a panic into a typed error
// (abort panics into their cause, anything else into *PanicError)
// without running cleanups — materialized evaluation acquires no
// pooled batches. Defer it with the named error result.
func RecoverPanic(errp *error) {
	if r := recover(); r != nil {
		if ap, ok := r.(abortPanic); ok {
			*errp = ap.err
		} else {
			*errp = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}
}

// Recover is the evaluator-boundary handler: defer it with the named
// error result. It converts an abort panic into its recorded cause,
// any other panic into a *PanicError (the package-prefixed panic
// convention becomes a typed error at the API surface), closes the
// quit channel, runs the registered cleanups, and surfaces the first
// abort cause through *errp.
func (g *Governor) Recover(errp *error) {
	if r := recover(); r != nil {
		if ap, ok := r.(abortPanic); ok {
			g.Abort(ap.err)
			if g == nil {
				*errp = ap.err
			}
		} else {
			err := &PanicError{Value: r, Stack: debug.Stack()}
			if g == nil {
				*errp = err
			} else {
				g.Abort(err)
			}
		}
	}
	g.finish()
	if *errp == nil {
		*errp = g.Err()
	}
}

// finish closes the quit channel (releasing the context watcher) and
// runs the cleanups exactly once.
func (g *Governor) finish() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.quit)
	}
	done := g.finished
	g.finished = true
	cleanups := g.cleanups
	g.cleanups = nil
	g.mu.Unlock()
	if done {
		return
	}
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
}
