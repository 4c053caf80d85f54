package plan

import (
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// meter tracks the number of tuples currently held in operator state
// across a whole cursor tree, and the peak. The final result relation
// is not counted: every evaluator must hold its output, so the maximum
// measures only the executor's auxiliary state. One meter is shared by
// every operator of a plan — joins, sinks, semijoins, γ, the aggregate
// division — so the peak is the true concurrent footprint of the plan.
//
// A meter bound to a query governor enforces, through the guard cursors
// guardBatches returns, the governor's cancellation and resident budget
// against its live count; a nil governor (or a plain &meter{}) is
// ungoverned and the guards are free passthroughs.
type meter struct {
	cur, max int
	gov      *exec.Governor
}

// grow records n more tuples entering operator state.
func (m *meter) grow(n int) {
	m.cur += n
	if m.cur > m.max {
		m.max = m.cur
	}
}

// release records n tuples leaving operator state.
func (m *meter) release(n int) { m.cur -= n }

// guardBatches wraps a batch cursor with the governor check point: at
// every batch boundary it observes cancellation and enforces the
// resident-tuple budget — the "≤ one branch per batch" the
// cancellation-latency contract promises. With no governor the
// cursor is returned unchanged, so ungoverned plans pay nothing. The
// check happens before the pull, the only place an abort unwinds from.
// Every scan of a stored relation the executor makes goes through one.
func (m *meter) guardBatches(in rel.BatchCursor) rel.BatchCursor {
	if m == nil || m.gov == nil {
		return in
	}
	return &guardBatchCursor{in: in, g: m.gov, m: m}
}

type guardBatchCursor struct {
	in rel.BatchCursor
	g  *exec.Governor
	m  *meter
}

func (c *guardBatchCursor) NextBatch() (*rel.Batch, bool) {
	c.g.Check()
	c.g.CheckResident(c.m.cur)
	return c.in.NextBatch()
}
