// The abort-path bug classes of the governed executor: the Governor
// checkpoints Check/CheckResident unwind during normal operation
// (cancellation, budget trips), releasing only the holders registered
// with the governor — so a pooled batch definitely held at such a call
// site leaks live pool count on every abort. The accepted
// shapes — checkpoint before the pull, deferred release, handoff to a
// registered holder — must stay silent.
package a

import (
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// HeldAcrossCheck holds a pooled batch over a governor checkpoint:
// an abort here unwinds past the Release below.
func HeldAcrossCheck(g *exec.Governor, c rel.BatchCursor) int {
	b, ok := c.NextBatch() // want `held across a governor checkpoint`
	if !ok {
		return 0
	}
	g.Check()
	n := b.Len()
	b.Release()
	return n
}

// HeldAcrossCheckResident: same bug through the resident-budget
// checkpoint.
func HeldAcrossCheckResident(g *exec.Governor, cur int) {
	b := rel.NewBatch(2) // want `held across a governor checkpoint`
	g.CheckResident(cur)
	b.Release()
}

// HeldAcrossConditionalCheck: a checkpoint on one branch only still
// unwinds past the Release on that path.
func HeldAcrossConditionalCheck(g *exec.Governor, cond bool) {
	b := rel.NewBatch(1) // want `held across a governor checkpoint`
	if cond {
		g.Check()
	}
	b.Release()
}

// CheckBeforePullOK is the pull-boundary idiom the engine's guard
// cursors follow: the checkpoint fires while the frame holds nothing,
// then the batch is pulled, consumed and released.
func CheckBeforePullOK(g *exec.Governor, c rel.BatchCursor) int {
	n := 0
	for {
		g.Check()
		b, ok := c.NextBatch()
		if !ok {
			return n
		}
		n += b.Len()
		b.Release()
	}
}

// DeferAcrossCheckOK: defers run during the abort unwind, so a
// deferred Release discharges the obligation across checkpoints.
func DeferAcrossCheckOK(g *exec.Governor, c rel.BatchCursor) int {
	b, ok := c.NextBatch()
	if !ok {
		return 0
	}
	defer b.Release()
	g.CheckResident(b.Len())
	return b.Len()
}

// WatchedHandoffOK: handing the batch to a registered holder (or any
// callee) transfers ownership before the checkpoint.
func WatchedHandoffOK(g *exec.Governor) {
	b := rel.NewBatch(1)
	sink(b)
	g.Check()
}
