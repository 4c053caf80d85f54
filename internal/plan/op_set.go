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
// first-occurrence order. A one-column set also keeps a dense array by
// ID, so its probes and repeated inserts are one array load. An idSet
// is owned by one operator and is not safe for concurrent use.
type idSet struct {
	rows *rel.RowSet
	buf  []uint32
	at   []int32 // one column: 1 + the position of the row holding each ID, 0 if none
}

// newIDSet returns an empty set of rows of the given arity.
func newIDSet(arity int) *idSet {
	return &idSet{rows: rel.NewRowSet(arity), buf: make([]uint32, arity)}
}

// add inserts row `row` of b, reporting whether it was new.
func (s *idSet) add(b *rel.Batch, row int) bool {
	_, fresh := s.insert(b, row, nil)
	return fresh
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
	if int(id) < len(s.at) && s.at[id] != 0 {
		return int(s.at[id]) - 1, false
	}
	if int(id) >= len(s.at) {
		// Doubling, not fitting: a set meeting ever larger IDs would
		// otherwise copy the array once per new value.
		s.at = append(s.at, make([]int32, max(int(id)+1, 2*len(s.at))-len(s.at))...)
	}
	pos, _ = s.rows.Insert(s.buf)
	s.at[id] = int32(pos) + 1
	return pos, true
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

// contains is find as a membership test.
func (s *idSet) contains(b *rel.Batch, row int, cols []int) bool { return s.find(b, row, cols) >= 0 }

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

func (c *unionCursor) drain(in rel.BatchCursor) {
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		n := b.Len()
		for row := 0; row < n; row++ {
			if c.set.add(b, row) {
				c.meter.grow(1)
				c.held++
			}
		}
	}
}

func (c *unionCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.set = newIDSet(c.arity)
		c.drain(c.l)
		c.drain(c.r)
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
// against the subtrahend: a stored relation is probed in place with
// the batch's IDs (holding nothing); a computed subtrahend is drained
// into an idSet first. Exactly one of buildC and stored is set
// (builder.inPlace).
type diffCursor struct {
	filter
	buildC rel.BatchCursor
	stored rel.StoredRel
	arity  int
	meter  *meter

	opened bool
	set    *idSet
	ids    []uint32
	held   int
}

func (c *diffCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		if c.buildC != nil {
			c.set = newIDSet(c.arity)
			for b, ok := c.buildC.NextBatch(); ok; b, ok = c.buildC.NextBatch() {
				n := b.Len()
				for row := 0; row < n; row++ {
					if c.set.add(b, row) {
						c.meter.grow(1)
						c.held++
					}
				}
			}
		} else {
			c.ids = make([]uint32, c.arity)
		}
	}
	b, ok := c.next(func(b *rel.Batch, row int) bool { return !c.containsRow(b, row) })
	if !ok {
		c.meter.release(c.held)
		c.held = 0
		c.set = nil
	}
	return b, ok
}

func (c *diffCursor) containsRow(b *rel.Batch, row int) bool {
	if c.set != nil {
		return c.set.contains(b, row, nil)
	}
	for k := range c.ids {
		c.ids[k] = b.Col(k)[row]
	}
	return c.stored.ContainsIDs(c.ids)
}
