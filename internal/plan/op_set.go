package plan

// This file holds the executor's set operators: idSet, the one row set
// behind every sink, the union and difference sinks, and the drain of
// the root into the result. Union and difference are blocking sinks,
// as set semantics requires. Every hash index of the executor is a
// rel.RowSet, the module's one row index: idSet keeps its rows in one,
// buildTable keeps its distinct keys in an idSet, γ its groups and
// counted values in two. How rows are hashed and chained is decided in
// rel/rowset.go alone.

import "radiv/internal/rel"

// drainBatches pulls in to exhaustion into the result sink, then drops
// the sink's translation cache: the cache pins every source dictionary
// the stream carried (stored relations' and operator dictionaries),
// which must not outlive the evaluation on a caller-retained result.
func drainBatches(in rel.BatchCursor, sink *rel.Relation) {
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		sink.AddBatch(b)
		b.Release()
	}
	sink.DropBatchCache()
}

// idSet is the columnar hash set of the sinks (the union sink, the
// built diff subtrahend, the dedup filter), of γ's full-row dedup and
// of buildTable's key rows: batch rows — or, through a column mapping,
// the key columns of wider rows — are translated into one set-owned
// dictionary through an IDMap cache and held in a rel.RowSet, insertion
// order preserved, so re-emission is in first-occurrence order. An
// idSet is owned by one operator and is not safe for concurrent use.
type idSet struct {
	dict *rel.Interner
	xl   *rel.IDMap
	rows *rel.RowSet
	buf  []uint32

	// Probe acceleration for single-column sets: per probe dictionary,
	// a dense membership table built by translating the set's few
	// values INTO that dictionary — the inverse direction of xl — so a
	// probe is one array load with no per-row hashing at all. Tables
	// are built against the set size recorded in oneN and discarded
	// when the set grows.
	oneTbl map[*rel.Interner][]bool
	oneN   int
	lastD  *rel.Interner
	lastT  []bool
}

// newIDSet returns an empty set of rows of the given arity.
func newIDSet(arity int) *idSet {
	d := rel.NewInterner()
	return &idSet{dict: d, xl: rel.NewIDMap(d), rows: rel.NewRowSet(arity), buf: make([]uint32, arity)}
}

// add inserts row `row` of b, reporting whether it was new.
func (s *idSet) add(b *rel.Batch, row int) bool {
	_, fresh := s.insert(b, row, nil)
	return fresh
}

// insert adds row `row` of b and returns its position in the set,
// fresh reporting whether it was new. Set column k is read from batch
// column cols[k], so a caller can key a set on the equality columns of
// a wider batch; a nil cols is the identity mapping.
func (s *idSet) insert(b *rel.Batch, row int, cols []int) (pos int, fresh bool) {
	for k := range s.buf {
		src := k
		if cols != nil {
			src = cols[k]
		}
		s.buf[k] = s.xl.Intern(b.Dict(src), b.Col(src)[row])
	}
	return s.rows.Insert(s.buf)
}

// find returns the position of row `row` of b, read through cols as in
// insert, or -1 — without growing the set's dictionary.
func (s *idSet) find(b *rel.Batch, row int, cols []int) int {
	for k := range s.buf {
		src := k
		if cols != nil {
			src = cols[k]
		}
		id, ok := s.xl.Lookup(b.Dict(src), b.Col(src)[row])
		if !ok {
			return -1 // a value the set has never seen
		}
		s.buf[k] = id
	}
	return s.rows.Find(s.buf)
}

// contains is find as a membership test, with the single-column fast
// path: a dense membership table over the probe dictionary, one array
// load per row.
func (s *idSet) contains(b *rel.Batch, row int, cols []int) bool {
	if len(s.buf) != 1 {
		return s.find(b, row, cols) >= 0
	}
	src := 0
	if cols != nil {
		src = cols[0]
	}
	d, id := b.Dict(src), b.Col(src)[row]
	tbl := s.lastT
	if d != s.lastD || s.oneN != s.rows.Len() {
		tbl = s.oneTable(d)
	}
	if int(id) < len(tbl) {
		return tbl[id]
	}
	// The probe dictionary grew past the table: resolve the late ID
	// through the forward cache (the set's dictionary holds exactly the
	// values added, so dictionary membership is set membership).
	_, ok := s.xl.Lookup(d, id)
	return ok
}

// oneTable returns the membership table for probe dictionary d,
// building it on first use (and rebuilding all tables when the set has
// grown since): each set value is reverse-looked-up in d once, so the
// per-probe cost is independent of how many distinct values flow past
// the probe — the DivisorTable trick, generalized.
func (s *idSet) oneTable(d *rel.Interner) []bool {
	if s.oneTbl == nil || s.oneN != s.rows.Len() {
		s.oneTbl = make(map[*rel.Interner][]bool)
		s.oneN = s.rows.Len()
	}
	tbl, ok := s.oneTbl[d]
	if !ok {
		tbl = make([]bool, d.Len())
		for _, kid := range s.rows.Cols()[0] {
			if pid, ok := d.ID(s.dict.Value(kid)); ok && int(pid) < len(tbl) {
				tbl[pid] = true
			}
		}
		s.oneTbl[d] = tbl
	}
	s.lastD, s.lastT = d, tbl
	return tbl
}

// batches re-emits the set's contents in insertion order as view
// batches over its columns (valid until the next NextBatch call).
func (s *idSet) batches(capacity int) rel.BatchCursor {
	c := &setCursor{s: s, size: capacity}
	c.view.MakeView(s.rows.Cols(), s.dict)
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
		b.Release()
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
// against the subtrahend: a stored in-memory relation is probed on its
// own index through a translation cache (holding nothing); any other
// stored backend is probed tuple-wise in place; a computed subtrahend
// is drained into an idSet first. Exactly one of buildC and stored is
// set (builder.inPlace).
type diffCursor struct {
	in     rel.BatchCursor
	buildC rel.BatchCursor
	stored rel.StoredRel
	arity  int
	meter  *meter

	opened    bool
	set       *idSet
	storedRel *rel.Relation
	xl        *rel.IDMap
	ids       []uint32
	tbuf      rel.Tuple
	held      int
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
				b.Release()
			}
		} else if r, ok := c.stored.(*rel.Relation); ok {
			c.storedRel = r
			c.xl = rel.NewIDMap(r.Interner())
			c.ids = make([]uint32, c.arity)
		}
	}
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			c.meter.release(c.held)
			c.held = 0
			c.set = nil
			return nil, false
		}
		out := filterBatch(b, func(row int) bool { return !c.containsRow(b, row) })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

func (c *diffCursor) containsRow(b *rel.Batch, row int) bool {
	switch {
	case c.set != nil:
		return c.set.contains(b, row, nil)
	case c.storedRel != nil:
		for k := 0; k < c.arity; k++ {
			id, ok := c.xl.Lookup(b.Dict(k), b.Col(k)[row])
			if !ok {
				return false // a value the subtrahend has never seen
			}
			c.ids[k] = id
		}
		return c.storedRel.ContainsIDs(c.ids)
	default:
		c.tbuf = b.Row(c.tbuf, row)
		return c.stored.Contains(c.tbuf)
	}
}
