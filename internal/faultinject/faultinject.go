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
// A wrapped view's batch scan is the wrapped backend's own, injected
// per batch and row-exact: a batch that would carry the scan across a
// FailAfter, CancelAt or DelayEvery row is handed out in pieces that
// end at that row, so where a fault fires, and what Rows reads after
// an abort, do not depend on the batch size. Every leaf of a plan pulls
// through the injection; with a zero Fault the wrapper only counts
// rows.
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
	// Every scan counts afresh, so a relation scanned twice fails at
	// the same row both times.
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

// faultRel wraps one relation view; only the scan is intercepted. It
// defines BatchScanSized itself, so the embedded view's uninjected
// scan is never promoted.
type faultRel struct {
	rel.StoredRel
	s *Store
}

// BatchScanSized implements rel.StoredRel: the wrapped view's scan,
// injected.
func (r *faultRel) BatchScanSized(size int) rel.BatchCursor {
	return &faultCursor{in: r.StoredRel.BatchScanSized(size), s: r.s}
}

// faultCursor injects at the pull boundary: the failure fires before
// the underlying pull, after releasing what the cursor holds, so this
// frame — and by the guard-cursor idiom every downstream frame — holds
// no pooled batch. A batch crossing an injection row is held and
// handed out as view pieces over its columns.
type faultCursor struct {
	in   rel.BatchCursor
	s    *Store
	n    int        // rows this scan has yielded
	held *rel.Batch // underlying batch being handed out in pieces
	off  int        // rows of held already handed out
	cols [][]uint32 // held's columns, which the pieces slice
	view rel.Batch
}

// ReleaseHeld implements rel.BatchHolder.
func (c *faultCursor) ReleaseHeld() {
	b := c.held
	c.held = nil
	b.Release()
}

func (c *faultCursor) NextBatch() (*rel.Batch, bool) {
	f := &c.s.f
	if f.FailAfter > 0 && f.Err != nil && c.n >= f.FailAfter {
		c.ReleaseHeld()
		panic(f.Err)
	}
	if f.DelayEvery > 0 && c.n > 0 && c.n%f.DelayEvery == 0 {
		time.Sleep(f.Delay)
	}
	for c.held == nil || c.off == c.held.Len() {
		c.ReleaseHeld()
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		c.held, c.off = b, 0
	}
	take := c.held.Len() - c.off
	for _, at := range []int{f.FailAfter, f.CancelAt} {
		if at > c.n {
			take = min(take, at-c.n)
		}
	}
	if f.DelayEvery > 0 {
		take = min(take, f.DelayEvery-c.n%f.DelayEvery)
	}
	out := &c.view
	if c.off == 0 && take == c.held.Len() {
		out, c.held = c.held, nil // the whole batch: ownership passes on
	} else {
		if c.off == 0 {
			c.cols = c.cols[:0]
			for k := 0; k < c.held.Arity(); k++ {
				c.cols = append(c.cols, c.held.Col(k))
			}
			c.view.MakeView(c.cols, nil)
			for k := range c.cols {
				c.view.SetDict(k, c.held.Dict(k))
			}
		}
		c.view.SliceView(c.cols, c.off, c.off+take)
		c.off += take
	}
	c.n += take
	c.s.rows += int64(take)
	if f.CancelAt > 0 && f.OnRow != nil && c.n == f.CancelAt {
		f.OnRow()
	}
	return out, true
}
