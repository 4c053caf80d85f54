package sa

// This file is the semijoin algebra's part of the batch operator
// library (see internal/ra/vector.go for the generic operators): the
// semijoin and antijoin cursor, built by internal/plan's executor like
// any other operator. It picks one of three strategies from the
// condition's shape:
//
//   - pure-equality conditions keep only the distinct key rows of an
//     ra.BuildTable, so resident state is bounded by the number of
//     distinct join keys and a probe is a translation-cache load plus
//     an integer chain walk;
//   - conditions with residual atoms keep every build row in the same
//     ra.BuildTable the hash join uses, chained per key, and evaluate
//     only the residual atoms on the rows with the probe's key;
//   - theta-only conditions replay the right side per probe row, opened
//     by ra.ReplaySide like ra's theta join: in place over the
//     in-memory relation's ID columns (nothing held), otherwise from a
//     materialized, metered columnar copy.
//
// In every strategy the probe side streams through selection-vector
// compaction (ra.FilterBatch), so the probe side's order is preserved,
// and the meter is charged what is held — distinct key rows, full build
// rows, or nothing — and released at probe exhaustion.
//
// The paper's point about SA is that every operator's output is bounded
// by one of its inputs, so the *flow* is linear by construction. This
// operator sharpens that into a resident-memory statement: it holds
// only build-side key sets, so a plan of SA operators keeps
// plan.Trace.MaxResident linear in the database (experiment ST2), the
// memory-side counterpart of the syntactic linearity of Definition 2.

import (
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// NewSemijoinBatchCursor builds a semijoin (keep) or antijoin (!keep)
// cursor: left streams as the probe side, and the build side
// is either a batch cursor or — for θ-only conditions — a stored
// relation replayed in place. capacity bounds the output batches of
// the replay materialization (0 means rel.BatchCap). cond must have at
// least one atom and exactly one of build/stored must be set, except
// that an equality condition requires a build cursor.
func NewSemijoinBatchCursor(left, build ra.BatchCursor, stored rel.StoredRel, cond ra.Cond, keep bool, m *ra.Meter, capacity int) ra.BatchCursor {
	if len(cond) == 0 {
		panic("sa: semijoin cursor requires at least one condition atom")
	}
	if (build == nil) == (stored == nil) {
		panic("sa: semijoin cursor requires exactly one of build cursor and stored relation")
	}
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	eqs := cond.EqPairs()
	if len(eqs) > 0 {
		if build == nil {
			panic("sa: semijoin cursor with equality atoms requires a build cursor")
		}
		c := &vecHashSemijoinCursor{
			left: left, buildC: build, keep: keep, meter: m,
			buildCols: make([]int, len(eqs)), probeCols: make([]int, len(eqs)),
		}
		for x, p := range eqs {
			c.probeCols[x] = p[0] - 1
			c.buildCols[x] = p[1] - 1
		}
		for _, at := range cond {
			if at.Op != ra.OpEq {
				c.resid = append(c.resid, at)
			}
		}
		return c
	}
	return &vecLoopSemijoinCursor{left: left, buildC: build, stored: stored, cond: cond, keep: keep, meter: m, capacity: capacity}
}

// vecHashSemijoinCursor drains the build (right) side into an
// ra.BuildTable keyed on the equality columns and compacts probe
// batches through the partner test. A pure-equality condition keeps
// only the distinct key rows (the partner *set* is all a semijoin
// needs); a condition with residual atoms keeps every build row and
// evaluates the residual atoms on the rows with the probe's key.
type vecHashSemijoinCursor struct {
	left      ra.BatchCursor
	buildC    ra.BatchCursor
	resid     []ra.Atom
	buildCols []int // 0-based build columns of the equality atoms
	probeCols []int // 0-based probe columns of the equality atoms
	keep      bool
	meter     *ra.Meter

	opened bool
	table  *ra.BuildTable
	held   int
}

func (c *vecHashSemijoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.table = ra.NewBuildTable(c.buildC, c.buildCols, len(c.resid) == 0, c.meter)
		c.held = c.table.Held()
	}
	for {
		b, ok := c.left.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.table = nil
			return nil, false
		}
		out := ra.FilterBatch(b, func(row int) bool { return c.table.Partner(b, row, c.probeCols, c.resid) == c.keep })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecLoopSemijoinCursor handles semijoins without equality atoms: the
// right side, opened by ra.ReplaySide, is replayed per probe row over
// flat ID columns.
type vecLoopSemijoinCursor struct {
	left     ra.BatchCursor
	buildC   ra.BatchCursor
	stored   rel.StoredRel
	cond     ra.Cond
	keep     bool
	meter    *ra.Meter
	capacity int

	opened bool
	rcols  [][]uint32
	rdict  *rel.Interner
	rn     int
	held   int
}

// partner reports whether probe row `row` of b satisfies the condition
// against any replayed right row.
func (c *vecLoopSemijoinCursor) partner(b *rel.Batch, row int) bool {
	for ri := 0; ri < c.rn; ri++ {
		holds := true
		for _, at := range c.cond {
			if !at.Op.Eval(b.Value(at.L-1, row), c.rdict.Value(c.rcols[at.R-1][ri])) {
				holds = false
				break
			}
		}
		if holds {
			return true
		}
	}
	return false
}

func (c *vecLoopSemijoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.rcols, c.rdict, c.rn, c.held = ra.ReplaySide(c.buildC, c.stored, c.meter, c.capacity)
	}
	for {
		b, ok := c.left.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.rcols, c.rdict = nil, nil
			return nil, false
		}
		out := ra.FilterBatch(b, func(row int) bool { return c.partner(b, row) == c.keep })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}
