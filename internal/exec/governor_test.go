package exec_test

import (
	"context"
	"errors"
	"testing"

	"radiv/internal/exec"
)

// TestNilGovernorRecoverConvertsPanics: Recover turns a non-abort
// panic into a typed *PanicError at the boundary that still reaches an
// error panic value, and a string panic into one that unwraps to nil.
func TestNilGovernorRecoverConvertsPanics(t *testing.T) {
	boom := errors.New("scan exploded")
	err := func() (err error) {
		g := exec.NewGovernor(nil, 0)
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
	err = func() (err error) {
		g := exec.NewGovernor(nil, 0)
		defer g.Recover(&err)
		panic("ra: join arity mismatch")
	}()
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Unwrap() != nil {
		t.Error("string panic should not unwrap to an error")
	}
}

// TestResidentBudget: CheckResident trips exactly past the limit with
// a typed, inspectable BudgetError.
func TestResidentBudget(t *testing.T) {
	err := func() (err error) {
		g := exec.NewGovernor(nil, 10)
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
	if be.Limit != 10 || be.Used != 11 {
		t.Fatalf("wrong budget fields: %+v", be)
	}
	if got, want := be.Error(), "exec: resident tuples budget exceeded: 11 > 10"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

// TestCanceledContext: Check observes context cancellation
// synchronously and the boundary error wraps context.Canceled.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := func() (err error) {
		g := exec.NewGovernor(ctx, 0)
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

// TestSuccessfulRecoverYieldsNil: a clean run leaves *errp nil.
func TestSuccessfulRecoverYieldsNil(t *testing.T) {
	err := func() (err error) {
		g := exec.NewGovernor(context.Background(), 0)
		defer g.Recover(&err)
		g.Check()
		g.CheckResident(0)
		return nil
	}()
	if err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}
