// Package exec provides the execution substrate shared by every
// evaluator: the worker pool (Run, PartOf; pool.go) and the
// fault-tolerance layer of query execution — per-query cancellation,
// the resident-tuple budget, and the panic-to-error boundary protocol.
//
// The engine's internals keep their panic discipline (package-prefixed
// panics on programming errors); exec adds a second, *recoverable*
// kind of unwinding — the abort panic — raised only at pull
// boundaries by guard cursors and turned into an error by the boundary
// recovery (Governor.Recover). An abort hands nothing back: each
// cursor owns the one batch it yields (rel.Batch's validity rule), so
// the unwound cursor tree is simply garbage.
//
// A governed query runs on one goroutine, the caller's: the Governor
// starts none and is not safe for concurrent use.
package exec

import (
	"context"
	"fmt"
	"runtime/debug"
)

// BudgetError is returned when a query exceeds its resident-tuple
// budget.
type BudgetError struct {
	Limit int64
	Used  int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("exec: resident tuples budget exceeded: %d > %d", e.Used, e.Limit)
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
// throw raises it and only Recover catches it.
type abortPanic struct{ err error }

// Governor holds one query to its context and resident-tuple budget.
// Create it with NewGovernor and close the query out with a deferred
// Recover at the API boundary.
type Governor struct {
	ctx         context.Context
	maxResident int
}

// NewGovernor builds a Governor for one query. A nil ctx is treated
// as context.Background(); maxResident <= 0 means no resident budget.
func NewGovernor(ctx context.Context, maxResident int) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Governor{ctx: ctx, maxResident: maxResident}
}

// Check is the per-pull cancellation guard: it unwinds with an error
// wrapping context.Cause once the query's context is done. Call it
// at pull boundaries; its stride — one batch on the batch path —
// bounds the cancellation latency.
func (g *Governor) Check() {
	select {
	case <-g.ctx.Done():
		throw(fmt.Errorf("exec: query canceled: %w", context.Cause(g.ctx)))
	default:
	}
}

// CheckResident enforces the resident-tuple budget against the live
// meter value. Like Check, call only at pull boundaries.
func (g *Governor) CheckResident(cur int) {
	if g.maxResident > 0 && cur > g.maxResident {
		throw(&BudgetError{Limit: int64(g.maxResident), Used: int64(cur)})
	}
}

// throw unwinds with an abort panic that only Governor.Recover
// catches.
func throw(err error) { panic(abortPanic{err}) }

// Recover is the evaluator-boundary handler: defer it with the named
// error result. It converts an abort panic into its cause and any
// other panic into a *PanicError (the package-prefixed panic
// convention becomes a typed error at the API surface).
func (g *Governor) Recover(errp *error) {
	if r := recover(); r != nil {
		if ap, ok := r.(abortPanic); ok {
			*errp = ap.err
		} else {
			*errp = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}
}
