package plan

// This file holds the executor's set operators: idSet, the one row set
// behind every sink, and the union and difference sinks. Union and
// difference are blocking sinks, as set semantics requires. Every hash
// index of the executor is a rel.RowSet, the module's one row index:
// idSet keeps its rows in one, buildTable keeps its distinct keys in an
// idSet, γ its groups and counted values in two, and the root drains
// into the result's. How rows are hashed and chained is decided in
// rel/rowset.go alone.

import "radiv/internal/rel"

// drainBatches pulls in to exhaustion into the result. The query's
// batches hold IDs of the result's dictionary, the query dictionary,
// and go in as views that say so.
func drainBatches(in rel.BatchCursor, res *rel.Relation) {
	cols := make([][]uint32, res.Arity())
	var view rel.Batch
	view.MakeView(cols, res.Interner())
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		for k := range cols {
			cols[k] = b.Col(k)
		}
		view.SliceView(cols, 0, b.Len())
		res.AddBatch(&view)
	}
}

// idSet is the columnar hash set of the sinks (the union sink, the
// built diff subtrahend, the dedup filter), of γ's full-row dedup and
// of buildTable's key rows: batch rows — or, through a column mapping,
// the key columns of wider rows — are held as they stand in a
// rel.RowSet, insertion order preserved, so re-emission is in
// first-occurrence order. The sinks and the dedup filter insert a
// batch at a time and the difference and semijoins probe one; the
// build table and γ insert and find a row at a time, because they need
// each row's position. A one-column set also keeps a dense array by
// ID, so its probes and repeated inserts are one array load, a whole
// batch's in one loop. An idSet is owned by one operator and is not
// safe for concurrent use.
type idSet struct {
	rows *rel.RowSet
	buf  []uint32
	at   []int32 // one column: 1 + the position of the row holding each ID, 0 if none
}

// newIDSet returns an empty set of rows of the given arity.
func newIDSet(arity int) *idSet {
	return &idSet{rows: rel.NewRowSet(arity), buf: make([]uint32, arity)}
}

// load reads row `row` of b into buf: set column k from batch column
// cols[k], so a caller can key a set on the equality columns of a wider
// batch; a nil cols is the identity mapping.
func (s *idSet) load(b *rel.Batch, row int, cols []int) {
	for k := range s.buf {
		src := k
		if cols != nil {
			src = cols[k]
		}
		s.buf[k] = b.Col(src)[row]
	}
}

// insert adds row `row` of b, read through cols as in load, and returns
// its position in the set, fresh reporting whether it was new.
func (s *idSet) insert(b *rel.Batch, row int, cols []int) (pos int, fresh bool) {
	s.load(b, row, cols)
	if len(s.buf) != 1 {
		return s.rows.Insert(s.buf)
	}
	id := s.buf[0]
	s.cover(id)
	if s.at[id] != 0 {
		return int(s.at[id]) - 1, false
	}
	return s.addID(id), true
}

// cover grows the one-column array to hold id. Doubling, not fitting:
// a set meeting ever larger IDs would otherwise copy the array once per
// new value.
func (s *idSet) cover(id uint32) {
	if int(id) >= len(s.at) {
		s.at = append(s.at, make([]int32, max(int(id)+1, 2*len(s.at))-len(s.at))...)
	}
}

// addID appends the one-column row id, which the set does not hold,
// and returns its position.
func (s *idSet) addID(id uint32) int {
	s.buf[0] = id
	pos, _ := s.rows.Insert(s.buf)
	s.at[id] = int32(pos) + 1
	return pos
}

// insertBatch adds every row of b in row order, exactly as one insert
// per row would, and returns the number of rows added; when fresh is
// not nil, fresh[row] reports whether row `row` was. A one-column set
// decides the batch in one loop over its array.
func (s *idSet) insertBatch(b *rel.Batch, fresh []bool) int {
	n, added := b.Len(), 0
	if len(s.buf) != 1 {
		for row := range n {
			s.load(b, row, nil)
			_, isNew := s.rows.Insert(s.buf)
			if isNew {
				added++
			}
			if fresh != nil {
				fresh[row] = isNew
			}
		}
		return added
	}
	at := s.at
	for row, id := range b.Col(0) {
		if int(id) >= len(at) {
			s.cover(id)
			at = s.at
		}
		isNew := at[id] == 0
		if isNew {
			s.addID(id)
			added++
		}
		if fresh != nil {
			fresh[row] = isNew
		}
	}
	return added
}

// find returns the position of row `row` of b, read through cols as in
// load, or -1. A nil set is a zero-column key set: its one row, the
// empty one, is at position 0.
func (s *idSet) find(b *rel.Batch, row int, cols []int) int {
	if s == nil {
		return 0
	}
	s.load(b, row, cols)
	if len(s.buf) == 1 {
		if id := s.buf[0]; int(id) < len(s.at) {
			return int(s.at[id]) - 1
		}
		return -1
	}
	return s.rows.Find(s.buf)
}

// findBatch sets hit[i] to whether the set holds row i of the n rows
// given as columns, one per set column: one pass over the array for a
// one-column set, rel.RowSet.FindBatch for any other.
func (s *idSet) findBatch(cols [][]uint32, n int, hit []bool) {
	if len(s.buf) != 1 {
		s.rows.FindBatch(cols, n, hit)
		return
	}
	at := s.at
	for i, id := range cols[0][:n] {
		hit[i] = int(id) < len(at) && at[id] != 0
	}
}

// batches re-emits the set's contents in insertion order as view
// batches over its columns (valid until the next NextBatch call).
func (s *idSet) batches(capacity int) rel.BatchCursor {
	c := &setCursor{s: s, size: capacity}
	c.view.MakeView(s.rows.Cols(), nil)
	return c
}

type setCursor struct {
	s    *idSet
	size int
	i    int
	view rel.Batch
}

func (c *setCursor) NextBatch() (*rel.Batch, bool) {
	n := c.s.rows.Len()
	if c.i >= n {
		return nil, false
	}
	hi := min(c.i+c.size, n)
	c.view.SliceView(c.s.rows.Cols(), c.i, hi)
	c.i = hi
	return &c.view, true
}

// unionCursor is the blocking union sink: both inputs drain into one
// idSet, whose distinct rows then stream out in insertion order, with
// the held state released at exhaustion.
type unionCursor struct {
	l, r     rel.BatchCursor
	arity    int
	meter    *meter
	capacity int

	opened bool
	set    *idSet
	out    rel.BatchCursor
	held   int
}

// drainInto inserts in's rows into s to exhaustion, a batch at a time,
// charging m once per batch for the rows added, and returns how many
// were: the union sink's and the computed subtrahend's build.
func drainInto(s *idSet, in rel.BatchCursor, m *meter) int {
	held := 0
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		added := s.insertBatch(b, nil)
		m.grow(added)
		held += added
	}
	return held
}

func (c *unionCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.set = newIDSet(c.arity)
		c.held = drainInto(c.set, c.l, c.meter) + drainInto(c.set, c.r, c.meter)
		c.out = c.set.batches(c.capacity)
	}
	if c.out == nil {
		return nil, false
	}
	b, ok := c.out.NextBatch()
	if !ok {
		c.meter.release(c.held)
		c.held = 0
		c.out, c.set = nil, nil
		return nil, false
	}
	return b, true
}

// diffCursor streams the left input through a membership filter
// against the subtrahend, a batch at a time: a stored relation is
// probed in place with the batch's own columns (ContainsBatch, holding
// nothing); a computed subtrahend is drained into an idSet first, a
// batch at a time, and probed with findBatch. Exactly one of buildC and
// stored is set (builder.inPlace).
type diffCursor struct {
	filter
	buildC rel.BatchCursor
	stored rel.StoredRel
	arity  int
	meter  *meter

	opened bool
	set    *idSet
	cols   [][]uint32 // the probe batch's columns, re-pointed per batch
	held   int
}

func (c *diffCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.cols = make([][]uint32, c.arity)
		if c.buildC != nil {
			c.set = newIDSet(c.arity)
			c.held = drainInto(c.set, c.buildC, c.meter)
		}
	}
	b, ok := c.next(func(b *rel.Batch, keep []bool) {
		for k := range c.cols {
			c.cols[k] = b.Col(k)
		}
		if c.set != nil {
			c.set.findBatch(c.cols, b.Len(), keep)
		} else {
			c.stored.ContainsBatch(c.cols, b.Len(), keep)
		}
		for row, in := range keep {
			keep[row] = !in
		}
	})
	if !ok {
		c.meter.release(c.held)
		c.held = 0
		c.set = nil
	}
	return b, ok
}
