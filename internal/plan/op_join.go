package plan

// This file holds the executor's joins and semijoins. Both materialize
// only their build (right) side and stream the probe (left) side, and
// both pick their strategy from the condition's shape:
//
//   - a condition with equality atoms keys a buildTable on the equality
//     columns (equiKeys). The hash join keeps every build row, chained
//     per key; a semijoin keeps only the distinct key rows when the
//     condition is pure equality — the partner *set* is all it needs —
//     and every build row otherwise. A probe resolves its key once and
//     walks exactly the rows with that key, so equality atoms are never
//     re-verified; residual atoms compare IDs, and only an order atom
//     decodes values;
//   - a θ-only condition replays the right side per probe row, opened by
//     replaySide: in place over the in-memory relation's ID columns
//     (nothing held), otherwise from a materialized, metered columnar
//     copy. The empty condition — the cartesian product — is a pure
//     block copy.
//
// A semijoin's probe side streams through a filter, so its order is
// preserved, and the meter is charged what is held — distinct key rows,
// full build rows, or nothing — and released at probe exhaustion.
//
// The paper's point about SA is that every operator's output is bounded
// by one of its inputs, so the *flow* is linear by construction. The
// semijoin sharpens that into a resident-memory statement: it holds
// only build-side key sets, so a plan of SA operators keeps
// Trace.MaxResident linear in the database (experiment ST2), the
// memory-side counterpart of the syntactic linearity of Definition 2.

import (
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// equiKeys is a condition split for the equality-keyed operators: the
// 0-based probe and build columns of its equality atoms, aligned, and
// its residual (non-equality) atoms.
type equiKeys struct {
	probeCols, buildCols []int
	resid                []ra.Atom
}

func splitEquiKeys(cond ra.Cond) equiKeys {
	var k equiKeys
	for _, at := range cond {
		if at.Op == ra.OpEq {
			k.probeCols = append(k.probeCols, at.L-1)
			k.buildCols = append(k.buildCols, at.R-1)
		} else {
			k.resid = append(k.resid, at)
		}
	}
	return k
}

// colStore is a materialized build side: every row, its IDs kept as
// flat columns in arrival order.
type colStore struct {
	cols [][]uint32 // nil until the first batch fixes the arity
	n    int
}

// append stores every row of b.
func (s *colStore) append(b *rel.Batch) {
	if s.cols == nil {
		s.cols = make([][]uint32, b.Arity())
	}
	for k := range s.cols {
		s.cols[k] = append(s.cols[k], b.Col(k)...)
	}
	s.n += b.Len()
}

// replaySide opens the right side of a θ-only join or semijoin, which
// is replayed per probe row: a stored in-memory relation's own ID
// columns in place (nothing held), otherwise a materialized columnar
// copy of build — or, when build is nil, of the stored backend's batch
// scan — charging every buffered row to m. Only the in-memory relation
// exposes zero-copy ID columns, so a stored right side on any other
// backend (a wrapper, any other view) is materialized and metered; its
// scan goes through m's guard like every leaf scan, so a governed run
// checks it per batch. The caller releases held from m when done with
// the columns. Exactly one of build and stored is non-nil
// (builder.inPlace).
func replaySide(build rel.BatchCursor, stored rel.StoredRel, m *meter, capacity int) (cols [][]uint32, rows, held int) {
	if build == nil {
		if r, ok := stored.(*rel.Relation); ok {
			cols, _ = r.IDColumns()
			return cols, r.Len(), 0
		}
		build = m.guardBatches(stored.BatchScanSized(capacity))
	}
	var s colStore
	for b, ok := build.NextBatch(); ok; b, ok = build.NextBatch() {
		s.append(b)
		m.grow(b.Len())
	}
	return s.cols, s.n, s.n
}

// buildTable is the build side of the equality-keyed operators — the
// hash join and the hash semijoins: the distinct equality-key rows in
// an idSet and, unless the operator needs only those, every build row
// in a colStore, the rows of each key chained in build order. A probe
// finds its key row once and then walks exactly the build rows with
// that key, so equality atoms are never re-verified; only residual
// (non-equality) atoms are evaluated per candidate. The table charges
// the meter as it is built — one per distinct key, or one per build
// row — and held reports the charge for the caller to release.
type buildTable struct {
	dict  *rel.Interner
	keys  *idSet
	rows  *colStore // every build row; nil when only the keys are kept
	first []int32   // per key: 1 + its first build row
	next  []int32   // per build row: 1 + the next build row with its key (0 ends)
	held  int
}

// newBuildTable drains in into a table keyed on the build columns
// keyCols (0-based). keysOnly keeps the distinct key rows alone, which
// is all a semijoin without residual atoms needs.
func newBuildTable(in rel.BatchCursor, keyCols []int, keysOnly bool, m *meter, dict *rel.Interner) *buildTable {
	t := &buildTable{dict: dict, keys: newIDSet(len(keyCols))}
	if keysOnly {
		for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				if _, fresh := t.keys.insert(b, row, keyCols); fresh {
					m.grow(1)
					t.held++
				}
			}
		}
		return t
	}
	t.rows = new(colStore)
	var last []int32 // per key: 1 + its latest build row, while building
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		n := b.Len()
		t.rows.append(b)
		for row := 0; row < n; row++ {
			pos := int32(len(t.next)) + 1
			t.next = append(t.next, 0)
			if k, fresh := t.keys.insert(b, row, keyCols); fresh {
				t.first = append(t.first, pos)
				last = append(last, pos)
			} else {
				t.next[last[k]-1] = pos
				last[k] = pos
			}
		}
		m.grow(n)
		t.held += n
	}
	return t
}

// candidates returns 1 + the first build row whose key equals probe
// row `row` of b read through probeCols (0-based, aligned with the
// table's key columns), 0 when no build row has that key.
func (t *buildTable) candidates(b *rel.Batch, row int, probeCols []int) int32 {
	k := t.keys.find(b, row, probeCols)
	if k < 0 {
		return 0
	}
	return t.first[k]
}

// holds reports whether build row brow satisfies every residual atom
// against probe row `row` of b.
func (t *buildTable) holds(resid []ra.Atom, b *rel.Batch, row, brow int) bool {
	for _, at := range resid {
		if !opHolds(t.dict, at.Op, b.Col(at.L - 1)[row], t.rows.cols[at.R-1][brow]) {
			return false
		}
	}
	return true
}

// partner reports whether probe row `row` of b has a build row with
// its key (read through probeCols) that satisfies every residual atom:
// the semijoin's test. A keys-only table answers from its keys alone,
// so it must be built only for a condition without residual atoms.
func (t *buildTable) partner(b *rel.Batch, row int, probeCols []int, resid []ra.Atom) bool {
	if t.rows == nil {
		return t.keys.contains(b, row, probeCols)
	}
	for p := t.candidates(b, row, probeCols); p != 0; p = t.next[p-1] {
		if t.holds(resid, b, row, int(p-1)) {
			return true
		}
	}
	return false
}

// hashJoinCursor is the equality-keyed hash join: the build side is
// materialized into a buildTable, and probe batches stream against it —
// each probe row resolves its key once, walks the build rows with
// exactly that key, and decodes values only for residual
// (non-equality) atoms. The probe batch is read across several pulls
// of the join, which is valid: the join pulls its left input again
// only once the batch is done. Joined rows fill the join's own batch,
// Reset at the start of every pull.
type hashJoinCursor struct {
	left   rel.BatchCursor
	buildC rel.BatchCursor
	equiKeys
	meter    *meter
	capacity int
	dict     *rel.Interner

	opened bool
	table  *buildTable
	held   int

	probe *rel.Batch
	prow  int
	cand  int32 // 1 + the next candidate build row, 0 when exhausted
	out   *rel.Batch
}

func (c *hashJoinCursor) emit(brow int) {
	la := c.probe.Arity()
	rs := c.table.rows
	if c.out == nil {
		c.out = rel.NewBatchSized(la+len(rs.cols), c.capacity)
	}
	row := c.out.Len()
	for k := 0; k < la; k++ {
		c.out.WritableCol(k)[row] = c.probe.Col(k)[c.prow]
	}
	for k, col := range rs.cols {
		c.out.WritableCol(la + k)[row] = col[brow]
	}
	c.out.SetLen(row + 1)
}

func (c *hashJoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.table = newBuildTable(c.buildC, c.buildCols, false, c.meter, c.dict)
		c.held = c.table.held
	}
	if c.out != nil {
		c.out.Reset()
	}
	for {
		if c.probe == nil {
			// Flush at probe-batch boundaries, so what a consumer builds
			// from one probe batch's output grows while the probe side
			// below still holds its state, at every batch size: without
			// it MaxResident depends on the batch size.
			if c.out != nil && c.out.Len() > 0 {
				return c.out, true
			}
			b, ok := c.left.NextBatch()
			if !ok {
				c.meter.release(c.held)
				c.held = 0
				c.table = nil
				return nil, false
			}
			if b.Len() == 0 {
				continue
			}
			c.probe, c.prow = b, 0
			c.cand = c.table.candidates(c.probe, c.prow, c.probeCols)
		}
		if c.cand == 0 {
			c.prow++
			if c.prow >= c.probe.Len() {
				c.probe = nil
				continue
			}
			c.cand = c.table.candidates(c.probe, c.prow, c.probeCols)
			continue
		}
		brow := int(c.cand - 1)
		c.cand = c.table.next[brow]
		if !c.table.holds(c.resid, c.probe, c.prow, brow) {
			continue
		}
		c.emit(brow)
		if c.out.Full() {
			return c.out, true
		}
	}
}

// loopJoinCursor handles joins without equality atoms. The right side
// is opened by replaySide and replayed per probe row. The empty
// condition — the cartesian product — is a pure block copy: the probe
// value is broadcast down the left columns while the right columns are
// copied in slabs. Like the hash join, it reads a probe batch across
// several of its pulls and fills its own batch.
type loopJoinCursor struct {
	left     rel.BatchCursor
	buildC   rel.BatchCursor
	stored   rel.StoredRel
	cond     ra.Cond
	meter    *meter
	capacity int
	dict     *rel.Interner

	opened bool
	rcols  [][]uint32
	rn     int
	held   int

	probe *rel.Batch
	prow  int
	ri    int
	out   *rel.Batch
}

func (c *loopJoinCursor) ensureOut() {
	if c.out != nil {
		return
	}
	c.out = rel.NewBatchSized(c.probe.Arity()+len(c.rcols), c.capacity)
}

func (c *loopJoinCursor) holds() bool {
	for _, at := range c.cond {
		if !opHolds(c.dict, at.Op, c.probe.Col(at.L - 1)[c.prow], c.rcols[at.R-1][c.ri]) {
			return false
		}
	}
	return true
}

func (c *loopJoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.rcols, c.rn, c.held = replaySide(c.buildC, c.stored, c.meter, c.capacity)
	}
	if c.out != nil {
		c.out.Reset()
	}
	for {
		if c.probe == nil {
			if c.out != nil && c.out.Len() > 0 {
				return c.out, true
			}
			b, ok := c.left.NextBatch()
			if !ok {
				c.meter.release(c.held)
				c.held = 0
				c.rcols = nil
				return nil, false
			}
			if b.Len() == 0 {
				continue
			}
			c.probe, c.prow, c.ri = b, 0, 0
		}
		if c.prow >= c.probe.Len() {
			c.probe = nil
			continue
		}
		if c.ri >= c.rn {
			c.prow++
			c.ri = 0
			continue
		}
		if len(c.cond) == 0 {
			// Cartesian slab: fill as much of the output batch as the
			// remaining right rows allow in one block copy.
			c.ensureOut()
			la := c.probe.Arity()
			start := c.out.Len()
			m := c.capacity - start
			if rest := c.rn - c.ri; m > rest {
				m = rest
			}
			for k := 0; k < la; k++ {
				id := c.probe.Col(k)[c.prow]
				dst := c.out.WritableCol(k)[start : start+m]
				for i := range dst {
					dst[i] = id
				}
			}
			for k := range c.rcols {
				copy(c.out.WritableCol(la + k)[start:start+m], c.rcols[k][c.ri:c.ri+m])
			}
			c.out.SetLen(start + m)
			c.ri += m
			if c.out.Full() {
				return c.out, true
			}
			continue
		}
		if c.holds() {
			c.ensureOut()
			la := c.probe.Arity()
			row := c.out.Len()
			for k := 0; k < la; k++ {
				c.out.WritableCol(k)[row] = c.probe.Col(k)[c.prow]
			}
			for k := range c.rcols {
				c.out.WritableCol(la + k)[row] = c.rcols[k][c.ri]
			}
			c.out.SetLen(row + 1)
			c.ri++
			if c.out.Full() {
				return c.out, true
			}
			continue
		}
		c.ri++
	}
}

// hashSemijoinCursor is the semijoin (keep) or antijoin (!keep) of a
// condition with equality atoms: it drains the build side into a
// buildTable keyed on the equality columns — the distinct key rows
// alone when there are no residual atoms — and compacts probe batches
// through the partner test.
type hashSemijoinCursor struct {
	filter
	buildC rel.BatchCursor
	equiKeys
	keep  bool
	meter *meter
	dict  *rel.Interner

	opened bool
	table  *buildTable
	held   int
}

func (c *hashSemijoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.table = newBuildTable(c.buildC, c.buildCols, len(c.resid) == 0, c.meter, c.dict)
		c.held = c.table.held
	}
	b, ok := c.next(func(b *rel.Batch, row int) bool { return c.table.partner(b, row, c.probeCols, c.resid) == c.keep })
	if !ok {
		c.meter.release(c.held)
		c.held = 0
		c.table = nil
	}
	return b, ok
}

// loopSemijoinCursor is the semijoin (keep) or antijoin (!keep) of a
// θ-only condition: the right side, opened by replaySide, is replayed
// per probe row over flat ID columns.
type loopSemijoinCursor struct {
	filter
	buildC   rel.BatchCursor
	stored   rel.StoredRel
	cond     ra.Cond
	keep     bool
	meter    *meter
	capacity int
	dict     *rel.Interner

	opened bool
	rcols  [][]uint32
	rn     int
	held   int
}

// partner reports whether probe row `row` of b satisfies the condition
// against any replayed right row.
func (c *loopSemijoinCursor) partner(b *rel.Batch, row int) bool {
	for ri := 0; ri < c.rn; ri++ {
		all := true
		for _, at := range c.cond {
			if !opHolds(c.dict, at.Op, b.Col(at.L - 1)[row], c.rcols[at.R-1][ri]) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func (c *loopSemijoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.rcols, c.rn, c.held = replaySide(c.buildC, c.stored, c.meter, c.capacity)
	}
	b, ok := c.next(func(b *rel.Batch, row int) bool { return c.partner(b, row) == c.keep })
	if !ok {
		c.meter.release(c.held)
		c.held = 0
		c.rcols = nil
	}
	return b, ok
}
