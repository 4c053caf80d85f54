package sa

// This file is the semijoin algebra's part of the batch operator
// library (see internal/ra/vector.go for the generic operators): the
// semijoin and antijoin cursor, built by internal/plan's executor like
// any other operator. It picks one of three strategies from the
// condition's shape:
//
//   - pure-equality conditions build a distinct-key table on interned
//     IDs (ra.IDSet keyed through the equality columns), so resident
//     state is bounded by the number of distinct join keys and a probe
//     is a translation-cache load plus an integer chain walk;
//   - conditions with residual atoms materialize the build side into
//     per-column ID stores (ra.ColStore) indexed by ra.PackKey over
//     the equality columns, verifying residual atoms per candidate;
//   - theta-only conditions replay the right side per probe row — in
//     place over the in-memory relation's ID columns (nothing held),
//     otherwise from a materialized, metered columnar copy (the same
//     deliberate exception ra's theta join documents).
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
			left: left, buildC: build, eqs: eqs, keep: keep, meter: m,
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
		if len(c.resid) > 0 {
			c.kbuf = make([]uint32, len(eqs))
			c.pids = make([]uint32, len(eqs))
		}
		return c
	}
	return &vecLoopSemijoinCursor{left: left, buildC: build, stored: stored, cond: cond, keep: keep, meter: m, capacity: capacity}
}

// vecHashSemijoinCursor drains the build (right) side into a hash
// index on interned IDs and compacts probe batches through the partner
// test. A pure-equality condition keeps only the distinct key rows in
// an ra.IDSet (the partner *set* is all a semijoin needs) and a probe
// is IDSet.ContainsCols through the equality columns; a condition with
// residual atoms stores the full build rows in per-column ID stores
// indexed by ra.PackKey, verifying equality on raw IDs and residual
// atoms on decoded values per candidate.
type vecHashSemijoinCursor struct {
	left      ra.BatchCursor
	buildC    ra.BatchCursor
	eqs       [][2]int
	resid     []ra.Atom
	buildCols []int // 0-based build columns of the equality atoms
	probeCols []int // 0-based probe columns of the equality atoms
	keep      bool
	meter     *ra.Meter

	opened bool
	keys   *ra.IDSet // keysOnly strategy: distinct equality-key rows
	build  []*ra.ColStore
	index  map[uint64][]int32
	rows   int
	kbuf   []uint32
	pids   []uint32
	held   int
}

func (c *vecHashSemijoinCursor) openBuild() {
	if len(c.resid) == 0 {
		c.keys = ra.NewIDSet(len(c.eqs))
		for b, ok := c.buildC.NextBatch(); ok; b, ok = c.buildC.NextBatch() {
			n := b.Len()
			for row := 0; row < n; row++ {
				if c.keys.AddCols(b, row, c.buildCols) {
					c.meter.Grow(1)
					c.held++
				}
			}
			b.Release()
		}
		return
	}
	c.index = make(map[uint64][]int32)
	for b, ok := c.buildC.NextBatch(); ok; b, ok = c.buildC.NextBatch() {
		n := b.Len()
		if c.build == nil {
			c.build = make([]*ra.ColStore, b.Arity())
			for k := range c.build {
				c.build[k] = ra.NewColStore()
			}
		}
		base := c.rows
		for k, cs := range c.build {
			col, d := b.Col(k), b.Dict(k)
			for row := 0; row < n; row++ {
				cs.Append(d, col[row])
			}
		}
		c.rows += n
		c.meter.Grow(n)
		c.held += n
		for row := 0; row < n; row++ {
			for x, bc := range c.buildCols {
				c.kbuf[x] = c.build[bc].IDs[base+row]
			}
			c.index[ra.PackKey(c.kbuf)] = append(c.index[ra.PackKey(c.kbuf)], int32(base+row))
		}
		b.Release()
	}
}

// partner reports whether probe row `row` of b has a build-side
// partner under the condition.
func (c *vecHashSemijoinCursor) partner(b *rel.Batch, row int) bool {
	if c.keys != nil {
		return c.keys.ContainsCols(b, row, c.probeCols)
	}
	if c.rows == 0 {
		return false
	}
	for x, pc := range c.probeCols {
		id, ok := c.build[c.buildCols[x]].Map.Lookup(b.Dict(pc), b.Col(pc)[row])
		if !ok {
			return false // a key value the build side has never seen
		}
		c.pids[x] = id
	}
	for _, brow := range c.index[ra.PackKey(c.pids)] {
		if c.verify(b, row, int(brow)) {
			return true
		}
	}
	return false
}

func (c *vecHashSemijoinCursor) verify(b *rel.Batch, row, brow int) bool {
	for x, bc := range c.buildCols {
		if c.build[bc].IDs[brow] != c.pids[x] {
			return false
		}
	}
	for _, at := range c.resid {
		bs := c.build[at.R-1]
		if !at.Op.Eval(b.Value(at.L-1, row), bs.Dict.Value(bs.IDs[brow])) {
			return false
		}
	}
	return true
}

func (c *vecHashSemijoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.openBuild()
	}
	for {
		b, ok := c.left.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.keys, c.build, c.index = nil, nil, nil
			return nil, false
		}
		out := ra.FilterBatch(b, func(row int) bool { return c.partner(b, row) == c.keep })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecLoopSemijoinCursor handles semijoins without equality atoms: the
// right side is replayed per probe row over flat ID columns — the
// in-memory relation's own columns in place (nothing held), otherwise
// a materialized, metered columnar copy.
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
	rdicts []*rel.Interner
	rn     int
	held   int
}

func (c *vecLoopSemijoinCursor) open() {
	switch {
	case c.buildC != nil:
		c.rcols, c.rdicts, c.rn = ra.MaterializeBatchColumns(c.buildC, c.meter)
		c.held = c.rn
	default:
		if r, ok := c.stored.(*rel.Relation); ok {
			cols, dict := r.IDColumns()
			c.rcols = cols
			c.rdicts = make([]*rel.Interner, len(cols))
			for k := range c.rdicts {
				c.rdicts[k] = dict
			}
			c.rn = r.Len()
			return
		}
		// Non-in-memory stored backend: materialize (and meter) a
		// columnar copy instead of replaying the backend per probe row.
		tb := rel.ToBatches(c.stored.Scan(), c.stored.Arity(), c.capacity)
		c.meter.Watch(tb)
		c.rcols, c.rdicts, c.rn = ra.MaterializeBatchColumns(tb, c.meter)
		c.held = c.rn
	}
}

// partner reports whether probe row `row` of b satisfies the condition
// against any replayed right row.
func (c *vecLoopSemijoinCursor) partner(b *rel.Batch, row int) bool {
	for ri := 0; ri < c.rn; ri++ {
		holds := true
		for _, at := range c.cond {
			if !at.Op.Eval(b.Value(at.L-1, row), c.rdicts[at.R-1].Value(c.rcols[at.R-1][ri])) {
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
		c.open()
	}
	for {
		b, ok := c.left.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.rcols, c.rdicts = nil, nil
			return nil, false
		}
		out := ra.FilterBatch(b, func(row int) bool { return c.partner(b, row) == c.keep })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}
