package plan

// This file holds the executor's join and semijoin. Both materialize
// only their build (right) side, in a buildTable keyed on the
// condition's equality columns, and stream the probe (left) side. A
// probe resolves its key once and walks exactly the build rows with
// that key, so equality atoms are never re-verified; residual atoms
// compare IDs, and only an order atom decodes values. A θ-only
// condition keys the table on zero columns: every build row has the one
// empty key, and a probe walks them all in build order, hashing
// nothing. The empty condition — the cartesian product — copies that
// walk in blocks.
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

// equiKeys is a condition split for the build table: the 0-based probe
// and build columns of its equality atoms, aligned, and its residual
// (non-equality) atoms.
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

// buildTable is the build side of every join and semijoin: the build
// rows' IDs as flat columns in arrival order and, keyed on the equality
// columns, their distinct key rows in an idSet, the rows of each key
// chained in build order. A semijoin without residual atoms keeps the
// key rows alone: the partner set is all it needs. With zero key
// columns every row has the one empty key, there is no idSet, and the
// chain is the positions in order. The table charges the meter as it
// is built — one per distinct key, or one per build row — and release
// returns the charge.
type buildTable struct {
	dict  *rel.Interner
	keys  *idSet     // nil for zero key columns
	cols  [][]uint32 // every build row; nil until the first batch, or when only the keys are kept
	n     int        // the rows in cols
	first []int32    // per key: 1 + its first build row
	next  []int32    // per build row: 1 + the next build row with its key (0 ends); nil for zero key columns
	held  int
}

// emptyKey holds the first arrays of zero-key tables, indexed by
// whether the table has rows: the one empty key's chain is empty (0)
// or starts at build row 0 (1).
var emptyKey = [2][]int32{{0}, {1}}

// buildSide is what a join or semijoin builds its table from: exactly
// one of a build cursor and a stored view (builder.inPlace), the split
// condition, and the meter, batch capacity and dictionary the table
// needs.
type buildSide struct {
	buildC rel.BatchCursor
	stored rel.StoredRel
	equiKeys
	meter    *meter
	capacity int
	dict     *rel.Interner
}

// build drains the side into a table keyed on its build columns. The
// builder hands over a stored view only for zero key columns
// (builder.inPlace): an in-memory relation's own ID columns are then
// the table, with nothing copied or charged. Any other backend's view
// is drained through the meter's guard like every leaf scan, so a
// governed run checks it per batch. keysOnly keeps the distinct key
// rows alone, which is all a semijoin without residual atoms needs.
func (s *buildSide) build(keysOnly bool) buildTable {
	t := buildTable{dict: s.dict}
	build, keyCols, m := s.buildC, s.buildCols, s.meter
	if build == nil {
		if r, ok := s.stored.(*rel.Relation); ok {
			t.cols, _ = r.IDColumns()
			t.n = r.Len()
			t.first = emptyKey[min(t.n, 1)]
			return t
		}
		build = m.guardBatches(s.stored.BatchScanSized(s.capacity))
	}
	if len(keyCols) > 0 {
		t.keys = newIDSet(len(keyCols))
	}
	var last []int32 // per key: 1 + its latest build row, while building
	for b, ok := build.NextBatch(); ok; b, ok = build.NextBatch() {
		n := b.Len()
		if keysOnly {
			for row := 0; row < n; row++ {
				if _, fresh := t.keys.insert(b, row, keyCols); fresh {
					m.grow(1)
					t.held++
				}
			}
			continue
		}
		if t.cols == nil {
			t.cols = make([][]uint32, b.Arity())
		}
		for k := range t.cols {
			t.cols[k] = append(t.cols[k], b.Col(k)...)
		}
		for row := 0; t.keys != nil && row < n; row++ {
			pos := int32(t.n+row) + 1
			t.next = append(t.next, 0)
			if k, fresh := t.keys.insert(b, row, keyCols); fresh {
				t.first = append(t.first, pos)
				last = append(last, pos)
			} else {
				t.next[last[k]-1] = pos
				last[k] = pos
			}
		}
		t.n += n
		m.grow(n)
		t.held += n
	}
	if t.keys == nil {
		t.first = emptyKey[min(t.n, 1)]
	}
	return t
}

// release returns the table's charge to m and drops the table.
func (t *buildTable) release(m *meter) {
	m.release(t.held)
	*t = buildTable{}
}

// candidates returns 1 + the first build row whose key equals probe
// row `row` of b read through probeCols (0-based, aligned with the
// table's key columns), 0 when no build row has that key. Under zero
// key columns the nil key set finds the one empty key without hashing,
// and emptyKey says whether it has rows: no branch of candidates' own,
// so it stays small enough to inline into the probe loop.
func (t *buildTable) candidates(b *rel.Batch, row int, probeCols []int) int32 {
	if k := t.keys.find(b, row, probeCols); k >= 0 {
		return t.first[k]
	}
	return 0
}

// after returns 1 + the build row after build row p-1 in its key's
// chain, 0 at the chain's end.
func (t *buildTable) after(p int32) int32 {
	if t.keys == nil {
		if int(p) < t.n {
			return p + 1
		}
		return 0
	}
	return t.next[p-1]
}

// holds reports whether build row brow satisfies every residual atom
// against probe row `row` of b.
func (t *buildTable) holds(resid []ra.Atom, b *rel.Batch, row, brow int) bool {
	for _, at := range resid {
		if !opHolds(t.dict, at.Op, b.Col(at.L - 1)[row], t.cols[at.R-1][brow]) {
			return false
		}
	}
	return true
}

// partners sets found[row] for every row of probe batch b: whether the
// row has a build row with its key (probe holds the batch's probeCols
// columns, aligned with the table's key columns) that satisfies every
// residual atom — the semijoin's test, a batch at a time. Without
// residual atoms the keys alone answer, in one findBatch over the
// batch's own columns, so the table may be keys-only exactly then.
// Under zero key columns every probe row has the one empty key, so the
// batch is decided at once when the table is empty, and otherwise each
// row walks the build rows from the same first one; with residual atoms
// under a key, each row resolves its key and walks its chain.
func (t *buildTable) partners(b *rel.Batch, probe [][]uint32, probeCols []int, resid []ra.Atom, found []bool) {
	first := int32(0)
	switch {
	case t.keys == nil:
		if first = t.first[0]; first == 0 || len(resid) == 0 {
			for row := range found {
				found[row] = first != 0
			}
			return
		}
	case len(resid) == 0:
		t.keys.findBatch(probe, b.Len(), found)
		return
	}
	for row := range found {
		p := first
		if t.keys != nil {
			p = t.candidates(b, row, probeCols)
		}
		for p != 0 && !t.holds(resid, b, row, int(p-1)) {
			p = t.after(p)
		}
		found[row] = p != 0
	}
}

// joinCursor is the join: its build side is materialized into a
// buildTable on the first pull, and probe batches stream against it,
// each probe row walking the build rows with its key. The empty
// condition is a block copy: the probe row is broadcast down the left
// columns while the build columns are copied in slabs. The probe batch
// is read across several pulls of the join, which is valid: the join
// pulls its left input again only once the batch is done. Joined rows
// fill the join's own batch, Reset at the start of every pull.
type joinCursor struct {
	left rel.BatchCursor
	buildSide

	opened bool
	table  buildTable

	probe *rel.Batch
	prow  int
	cand  int32 // 1 + the next candidate build row, 0 when exhausted
	out   *rel.Batch
}

// emit writes the probe row beside build row brow. The output batch is
// allocated on first use, here and in slab.
func (c *joinCursor) emit(brow int) {
	la := c.probe.Arity()
	if c.out == nil {
		c.out = rel.NewBatchSized(la+len(c.table.cols), c.capacity)
	}
	row := c.out.Len()
	for k := 0; k < la; k++ {
		c.out.WritableCol(k)[row] = c.probe.Col(k)[c.prow]
	}
	for k, col := range c.table.cols {
		c.out.WritableCol(la + k)[row] = col[brow]
	}
	c.out.SetLen(row + 1)
}

// slab writes the probe row beside build rows brow, brow+1, … up to the
// last or as many as the output batch has room for, in one block copy,
// and returns 1 + the last row written.
func (c *joinCursor) slab(brow int) int32 {
	la := c.probe.Arity()
	if c.out == nil {
		c.out = rel.NewBatchSized(la+len(c.table.cols), c.capacity)
	}
	start := c.out.Len()
	m := min(c.table.n-brow, c.capacity-start)
	for k := 0; k < la; k++ {
		id := c.probe.Col(k)[c.prow]
		dst := c.out.WritableCol(k)[start : start+m]
		for i := range dst {
			dst[i] = id
		}
	}
	for k, col := range c.table.cols {
		copy(c.out.WritableCol(la + k)[start:start+m], col[brow:brow+m])
	}
	c.out.SetLen(start + m)
	return int32(brow + m)
}

func (c *joinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.table = c.build(false)
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
				c.table.release(c.meter)
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
		if len(c.probeCols)+len(c.resid) == 0 {
			// The cartesian product: the rest of the build rows in one
			// slab, then the row after the last one written.
			c.cand = c.table.after(c.slab(int(c.cand - 1)))
			if c.out.Full() {
				return c.out, true
			}
			continue
		}
		for c.cand != 0 {
			brow := int(c.cand - 1)
			c.cand = c.table.after(c.cand)
			if c.table.holds(c.resid, c.probe, c.prow, brow) {
				c.emit(brow)
				if c.out.Full() {
					return c.out, true
				}
			}
		}
	}
}

// semijoinCursor is the semijoin (keep) or antijoin (!keep): it drains
// its build side into a buildTable on the first pull — the distinct key
// rows alone when there are no residual atoms — and compacts probe
// batches through the partner test, a batch at a time.
type semijoinCursor struct {
	filter
	buildSide
	keep bool

	opened bool
	table  buildTable
	probe  [][]uint32 // the probe batch's probeCols columns, re-pointed per batch
}

func (c *semijoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.table = c.build(len(c.resid) == 0)
		c.probe = make([][]uint32, len(c.probeCols))
	}
	b, ok := c.next(func(b *rel.Batch, keep []bool) {
		for k, col := range c.probeCols {
			c.probe[k] = b.Col(col)
		}
		c.table.partners(b, c.probe, c.probeCols, c.resid, keep)
		if !c.keep {
			for row, found := range keep {
				keep[row] = !found
			}
		}
	})
	if !ok {
		c.table.release(c.meter)
	}
	return b, ok
}
