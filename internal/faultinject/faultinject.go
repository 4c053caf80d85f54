// Package faultinject is the engine's deterministic failure harness:
// a rel.ReadStore wrapper whose scans fail or stall at an exact row,
// so tests can drive every abort path — cursor failure mid-stream,
// cancellation mid-scan, budget trips at a chosen size — and then
// assert the robustness contract (typed error, zero leaked batches,
// zero leaked goroutines, untouched snapshots).
//
// The injected panic carries the Fault's error value, which the
// boundary recovery wraps in *exec.PanicError; PanicError.Unwrap
// exposes it, so tests reach the injected fault with errors.Is
// through any number of layers. Injection happens at the pull
// boundary — before the row is produced — matching the engine's
// abort-panic discipline: the panicking frame holds no pooled batch.
//
// Wrapped views deliberately do not implement rel.BatchScanner: the
// executor falls back to packing the (injecting) tuple scan into
// batches, so every leaf of a plan pulls through the injection. With a
// zero Fault the wrapper is the test suites' backend without batch
// scans.
package faultinject

import (
	"time"

	"radiv/internal/rel"
)

// Fault describes one deterministic failure site. The zero value
// injects nothing.
type Fault struct {
	// Rel names the relation whose scans inject; empty means every
	// relation.
	Rel string
	// FailAfter, when > 0 with a non-nil Err, makes each scan panic
	// with Err at the pull after FailAfter rows have been yielded.
	// Replayed scans (Reset) count afresh, so inner-loop replays fail
	// at the same row.
	FailAfter int
	// Err is the value the failing pull panics with. Boundary
	// recovery surfaces it wrapped in *exec.PanicError.
	Err error
	// DelayEvery, when > 0, sleeps Delay after every DelayEvery rows
	// — a synthetically slow scan for cancellation-latency tests.
	DelayEvery int
	// Delay is the per-DelayEvery sleep.
	Delay time.Duration
	// CancelAt, when > 0, calls OnRow at the pull that yields row
	// number CancelAt (1-based) — the hook latency tests use to fire
	// a context cancel at an exact row.
	CancelAt int
	// OnRow is the CancelAt hook.
	OnRow func()
}

// Store wraps a ReadStore, injecting the Fault into matching views'
// scans. It implements exactly rel.ReadStore.
type Store struct {
	d rel.ReadStore
	f Fault
	// Rows counts every row yielded through injecting scans, across
	// cursors; latency tests read it after an abort.
	rows int64
}

// Wrap returns a Store injecting f into d's scans.
func Wrap(d rel.ReadStore, f Fault) *Store { return &Store{d: d, f: f} }

// Schema implements rel.ReadStore.
func (s *Store) Schema() rel.Schema { return s.d.Schema() }

// Size implements rel.ReadStore.
func (s *Store) Size() int { return s.d.Size() }

// Rows reports how many rows injecting scans have yielded so far.
// Single-goroutine evaluators only (the counter is unsynchronized by
// design — the executor pulls on one goroutine).
func (s *Store) Rows() int { return int(s.rows) }

// View implements rel.ReadStore, wrapping matching relations.
func (s *Store) View(name string) rel.StoredRel {
	v := s.d.View(name)
	if s.f.Rel != "" && s.f.Rel != name {
		//radivvet:ignore callerowned rel.ReadStore.View hands out views by contract; the fault wrapper implements that same contract
		return v
	}
	return &faultRel{StoredRel: v, s: s}
}

// faultRel wraps one relation view; only Scan is intercepted.
type faultRel struct {
	rel.StoredRel
	s *Store
}

func (r *faultRel) Scan() rel.TupleCursor {
	return &faultCursor{in: r.StoredRel.Scan(), s: r.s}
}

// faultCursor injects at the pull boundary: the failure fires before
// the underlying pull, when this frame — and by the guard-cursor
// idiom every downstream frame — holds no pooled batch.
type faultCursor struct {
	in rel.TupleCursor
	s  *Store
	n  int
}

func (c *faultCursor) Next() (rel.Tuple, bool) {
	f := &c.s.f
	if f.FailAfter > 0 && f.Err != nil && c.n >= f.FailAfter {
		panic(f.Err)
	}
	if f.DelayEvery > 0 && c.n > 0 && c.n%f.DelayEvery == 0 {
		time.Sleep(f.Delay)
	}
	t, ok := c.in.Next()
	if ok {
		c.n++
		c.s.rows++
		if f.CancelAt > 0 && f.OnRow != nil && c.n == f.CancelAt {
			f.OnRow()
		}
	}
	return t, ok
}

func (c *faultCursor) Reset() {
	c.in.Reset()
	c.n = 0
}
