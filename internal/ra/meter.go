package ra

import (
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// Meter tracks the number of tuples currently held in operator state
// across a whole cursor tree, and the peak. The final result relation
// is not counted: every evaluator must hold its output, so the maximum
// measures only the executor's auxiliary state. One Meter is shared by
// every operator of a plan, whichever package built it (ra's joins and
// sinks, sa's semijoins, xra's γ), so the peak is the true concurrent
// footprint of the plan.
type Meter struct {
	cur, max int
	gov      *exec.Governor
}

// NewGovernedMeter builds a meter bound to a query governor. Guard
// cursors obtained from GuardBatches enforce the governor's
// cancellation and budgets against this meter's live count; a nil
// governor (or a plain &Meter{}) is ungoverned and the guards are free
// passthroughs.
func NewGovernedMeter(g *exec.Governor) *Meter { return &Meter{gov: g} }

// Grow records n more tuples entering operator state.
func (m *Meter) Grow(n int) {
	m.cur += n
	if m.cur > m.max {
		m.max = m.cur
	}
}

// Release records n tuples leaving operator state.
func (m *Meter) Release(n int) { m.cur -= n }

// Max returns the peak number of concurrently held tuples so far.
func (m *Meter) Max() int { return m.max }

// Cur returns the currently resident tuple count.
func (m *Meter) Cur() int { return m.cur }

// Governor returns the query governor the meter is bound to, or nil.
func (m *Meter) Governor() *exec.Governor {
	if m == nil {
		return nil
	}
	return m.gov
}

// Watch registers c's held-batch cleanup with the meter's governor
// when both exist (see rel.BatchHolder); a no-op otherwise.
func (m *Meter) Watch(c any) {
	if m != nil && m.gov != nil {
		m.gov.Watch(c)
	}
}

// GuardBatches wraps a batch cursor with the governor check point: at
// every batch boundary it observes cancellation and enforces the
// resident-tuple and batch-pool budgets — the "≤ one branch per batch"
// the cancellation-latency contract promises. With no governor the
// cursor is returned unchanged, so ungoverned plans pay nothing. The
// check happens before the pull, when the guard's frame holds no pooled
// batch — the only place an abort is allowed to unwind from.
func (m *Meter) GuardBatches(in rel.BatchCursor) rel.BatchCursor {
	if m == nil || m.gov == nil {
		return in
	}
	m.gov.Watch(in)
	return &guardBatchCursor{in: in, g: m.gov, m: m}
}

type guardBatchCursor struct {
	in rel.BatchCursor
	g  *exec.Governor
	m  *Meter
}

func (c *guardBatchCursor) NextBatch() (*rel.Batch, bool) {
	c.g.Check()
	c.g.CheckResident(c.m.cur)
	return c.in.NextBatch()
}
