package ra

// This file is the batch operator library: the cursors the executor
// in internal/plan builds its trees from. Operators exchange columnar
// rel.Batch blocks (flat uint32 ID columns, ~1024 rows each) through
// the BatchCursor interface, so the per-row interface call and the
// per-row allocation of a tuple-at-a-time pipeline are amortized over
// a whole batch, and the hot loops — selection, dedup probes, join
// probes, difference membership — run on interned IDs through
// rel.IDMap translation caches: after the first occurrence of a value,
// a probe is an array load and an integer compare.
//
// Selections, constant selection and tagging, and projections are
// fully pipelined; projection defers deduplication, which is sound
// because every consumer either pipelines further or deduplicates in a
// sink (the optional dedup filter drops duplicates where they arise
// instead). Joins materialize only their build side — a BuildTable
// for equi-joins, a replayed column store (ReplaySide) for pure
// theta/cartesian joins — and stream the probe side. Union and
// difference are blocking sinks, as set semantics requires.
//
// Every hash index here is a rel.RowSet, the module's one row index:
// IDSet keeps its rows in one, and BuildTable keeps its distinct keys
// in an IDSet. How rows are hashed and chained is decided in
// rel/rowset.go alone.
//
// Operator state — build tables, sinks, dedup filters — grows the
// shared Meter by exactly the rows held and releases them at
// exhaustion, while the batches themselves are pooled transport
// buffers tracked separately by rel.BatchPoolStats. A stored relation
// consumed in place holds nothing, with one deliberate exception: a
// pure-theta join whose stored right side lives on a backend other
// than the in-memory *rel.Relation is materialized — and metered —
// instead of replayed in place, because only the in-memory relation
// exposes the zero-copy ID columns the replay runs on.
//
// Batch ownership follows the contract in rel: a cursor's caller owns
// the yielded batch and releases it (or passes it on); operators that
// reshape rows write into pooled batches and release their inputs.

import "radiv/internal/rel"

// BatchCursor is the pull-based batch iterator every operator
// implements, re-exported from rel so the sibling algebras and the
// engine exchange speak the same type.
type BatchCursor = rel.BatchCursor

// DrainBatches pulls in to exhaustion into the result sink, then
// drops the sink's translation cache: the cache pins every source
// dictionary the stream carried (stored relations', shard-local and
// operator dictionaries), which must not outlive the evaluation on a
// caller-retained result.
func DrainBatches(in BatchCursor, sink *rel.Relation) {
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		sink.AddBatch(b)
		b.Release()
	}
	sink.DropBatchCache()
}

// FilterBatch compacts src to the rows where keep is true, calling
// keep exactly once per row in row order (stateful predicates — the
// dedup filter — rely on that). When every row passes, src itself is
// returned (ownership passes through); otherwise the kept rows are
// copied into a pooled batch and src is released. The result may be
// empty.
func FilterBatch(src *rel.Batch, keep func(row int) bool) *rel.Batch {
	n := src.Len()
	first := -1
	for row := 0; row < n; row++ {
		if !keep(row) {
			first = row
			break
		}
	}
	if first < 0 {
		return src
	}
	dst := rel.NewBatchSized(src.Arity(), n)
	dst.AdoptDicts(src)
	for k := 0; k < src.Arity(); k++ {
		copy(dst.WritableCol(k)[:first], src.Col(k)[:first])
	}
	dst.SetLen(first)
	for row := first + 1; row < n; row++ {
		if keep(row) {
			dst.AppendRowFrom(src, row)
		}
	}
	src.Release()
	return dst
}

// vecSelectCursor is σ_{i op j}: same-dictionary equality and
// inequality compare raw IDs; everything else decodes the two values.
type vecSelectCursor struct {
	in   BatchCursor
	i, j int
	op   Op
}

func (c *vecSelectCursor) NextBatch() (*rel.Batch, bool) {
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		ci, cj := b.Col(c.i), b.Col(c.j)
		di, dj := b.Dict(c.i), b.Dict(c.j)
		var out *rel.Batch
		if di == dj && (c.op == OpEq || c.op == OpNe) {
			wantEq := c.op == OpEq
			out = FilterBatch(b, func(row int) bool { return (ci[row] == cj[row]) == wantEq })
		} else {
			op := c.op
			out = FilterBatch(b, func(row int) bool { return op.Eval(di.Value(ci[row]), dj.Value(cj[row])) })
		}
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecSelectConstCursor is σ_{i=c}: the constant is resolved to an ID
// in the column's dictionary once, then the filter is a flat ID
// compare; a constant absent from the dictionary kills the whole
// batch without touching a row. A positive resolution is stable
// (interner IDs are never reassigned), but a negative one can go
// stale when the dictionary is still growing — γ interns each count
// into its output dictionary as it emits, so σ_{2=2} over γ's counts
// meets 2 only in a later batch — so an absent verdict is re-checked
// whenever the dictionary has grown since it was cached.
type vecSelectConstCursor struct {
	in BatchCursor
	i  int
	c  rel.Value

	dict    *rel.Interner
	dictLen int
	id      uint32
	present bool
}

func (c *vecSelectConstCursor) NextBatch() (*rel.Batch, bool) {
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		if d := b.Dict(c.i); d != c.dict || (!c.present && d.Len() != c.dictLen) {
			c.dict, c.dictLen = d, d.Len()
			c.id, c.present = d.ID(c.c)
		}
		if !c.present {
			b.Release()
			continue
		}
		col, id := b.Col(c.i), c.id
		out := FilterBatch(b, func(row int) bool { return col[row] == id })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecTagCursor is τ_c: input columns are block-copied and one constant
// column — a single-entry dictionary, all IDs zero — is appended.
type vecTagCursor struct {
	in   BatchCursor
	dict *rel.Interner // contains exactly the tag constant, ID 0
}

func newVecTagCursor(in BatchCursor, c rel.Value) *vecTagCursor {
	d := rel.NewInterner()
	d.Intern(c)
	return &vecTagCursor{in: in, dict: d}
}

func (c *vecTagCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	for ok && b.Len() == 0 {
		b.Release()
		b, ok = c.in.NextBatch()
	}
	if !ok {
		return nil, false
	}
	n := b.Len()
	ar := b.Arity()
	out := rel.NewBatchSized(ar+1, n)
	for k := 0; k < ar; k++ {
		copy(out.WritableCol(k)[:n], b.Col(k))
		out.SetDict(k, b.Dict(k))
	}
	tag := out.WritableCol(ar)[:n]
	for i := range tag {
		tag[i] = 0
	}
	out.SetDict(ar, c.dict)
	out.SetLen(n)
	b.Release()
	return out, true
}

// vecProjectCursor is π_{cols}: a column gather — each output column
// block-copies (possibly repeating or reordering) an input column with
// its dictionary. Deduplication is deferred.
type vecProjectCursor struct {
	in   BatchCursor
	cols []int
}

func (c *vecProjectCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	for ok && b.Len() == 0 {
		b.Release()
		b, ok = c.in.NextBatch()
	}
	if !ok {
		return nil, false
	}
	n := b.Len()
	out := rel.NewBatchSized(len(c.cols), n)
	for p, col := range c.cols {
		copy(out.WritableCol(p)[:n], b.Col(col-1))
		out.SetDict(p, b.Dict(col-1))
	}
	out.SetLen(n)
	b.Release()
	return out, true
}

// IDSet is the columnar hash set of the vectorized sinks (the union
// sink, the built diff subtrahend, the dedup filter), of γ's full-row
// dedup and of BuildTable's key rows: batch rows — or, through a column
// mapping, the key columns of wider rows — are translated into one
// set-owned dictionary through an IDMap cache and held in a rel.RowSet,
// insertion order preserved, so re-emission is in first-occurrence
// order. An IDSet is owned by one operator and is not safe for
// concurrent use.
type IDSet struct {
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

// NewIDSet returns an empty set of rows of the given arity.
func NewIDSet(arity int) *IDSet {
	d := rel.NewInterner()
	return &IDSet{dict: d, xl: rel.NewIDMap(d), rows: rel.NewRowSet(arity), buf: make([]uint32, arity)}
}

// Add inserts row `row` of b, reporting whether it was new.
func (s *IDSet) Add(b *rel.Batch, row int) bool {
	_, fresh := s.insert(b, row, nil)
	return fresh
}

// insert adds row `row` of b and returns its position in the set,
// fresh reporting whether it was new. Set column k is read from batch
// column cols[k], so a caller can key a set on the equality columns of
// a wider batch; a nil cols is the identity mapping.
func (s *IDSet) insert(b *rel.Batch, row int, cols []int) (pos int, fresh bool) {
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
func (s *IDSet) find(b *rel.Batch, row int, cols []int) int {
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
func (s *IDSet) contains(b *rel.Batch, row int, cols []int) bool {
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
func (s *IDSet) oneTable(d *rel.Interner) []bool {
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
func (s *IDSet) batches(capacity int) BatchCursor {
	c := &setCursor{s: s, size: capacity}
	c.view.MakeView(s.rows.Cols(), s.dict)
	return c
}

type setCursor struct {
	s    *IDSet
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

// vecDedupCursor is the pipelined dedup filter at batch granularity:
// the IDSet holds one row per distinct tuple (charged to the meter,
// released at exhaustion) and each batch is compacted to its fresh
// rows.
type vecDedupCursor struct {
	in    BatchCursor
	arity int
	meter *Meter
	set   *IDSet
	held  int
}

func (c *vecDedupCursor) NextBatch() (*rel.Batch, bool) {
	if c.set == nil && c.held == 0 {
		c.set = NewIDSet(c.arity)
	}
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.set = nil
			return nil, false
		}
		out := FilterBatch(b, func(row int) bool {
			if c.set.Add(b, row) {
				c.meter.Grow(1)
				c.held++
				return true
			}
			return false
		})
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecUnionCursor is the blocking union sink: both inputs drain into
// one IDSet, whose distinct rows then stream out in insertion order,
// with the held state released at exhaustion.
type vecUnionCursor struct {
	l, r     BatchCursor
	arity    int
	meter    *Meter
	capacity int

	opened bool
	set    *IDSet
	out    BatchCursor
	held   int
}

func (c *vecUnionCursor) drain(in BatchCursor) {
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		n := b.Len()
		for row := 0; row < n; row++ {
			if c.set.Add(b, row) {
				c.meter.Grow(1)
				c.held++
			}
		}
		b.Release()
	}
}

func (c *vecUnionCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.set = NewIDSet(c.arity)
		c.drain(c.l)
		c.drain(c.r)
		c.out = c.set.batches(c.capacity)
	}
	if c.out == nil {
		return nil, false
	}
	b, ok := c.out.NextBatch()
	if !ok {
		c.meter.Release(c.held)
		c.held = 0
		c.out, c.set = nil, nil
		return nil, false
	}
	return b, true
}

// vecDiffCursor streams the left input through a membership filter
// against the subtrahend: a stored in-memory relation is probed on its
// own index through a translation cache (holding nothing); any other
// stored backend is probed tuple-wise in place; a computed subtrahend
// is drained into an IDSet first.
type vecDiffCursor struct {
	in     BatchCursor
	buildC BatchCursor
	stored rel.StoredRel
	arity  int
	meter  *Meter

	opened    bool
	set       *IDSet
	storedRel *rel.Relation
	xl        *rel.IDMap
	ids       []uint32
	tbuf      rel.Tuple
	held      int
}

func (c *vecDiffCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		if c.buildC != nil {
			c.set = NewIDSet(c.arity)
			for b, ok := c.buildC.NextBatch(); ok; b, ok = c.buildC.NextBatch() {
				n := b.Len()
				for row := 0; row < n; row++ {
					if c.set.Add(b, row) {
						c.meter.Grow(1)
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
			c.meter.Release(c.held)
			c.held = 0
			c.set = nil
			return nil, false
		}
		out := FilterBatch(b, func(row int) bool { return !c.containsRow(b, row) })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

func (c *vecDiffCursor) containsRow(b *rel.Batch, row int) bool {
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

// colStore is a materialized build side: every row, translated into
// one store-owned dictionary through an IDMap — so the stored columns
// outlive the batches they came from, whatever dictionaries those
// carried — and kept as flat columns in arrival order.
type colStore struct {
	dict *rel.Interner
	xl   *rel.IDMap
	cols [][]uint32 // nil until the first batch fixes the arity
	n    int
}

func newColStore() *colStore {
	d := rel.NewInterner()
	return &colStore{dict: d, xl: rel.NewIDMap(d)}
}

// append stores every row of b.
func (s *colStore) append(b *rel.Batch) {
	if s.cols == nil {
		s.cols = make([][]uint32, b.Arity())
	}
	n := b.Len()
	for k := range s.cols {
		col, d := b.Col(k), b.Dict(k)
		for row := 0; row < n; row++ {
			s.cols[k] = append(s.cols[k], s.xl.Intern(d, col[row]))
		}
	}
	s.n += n
}

// ReplaySide opens the right side of a θ-only join or semijoin, which
// is replayed per probe row: a stored in-memory relation's own ID
// columns in place (nothing held), otherwise a materialized columnar
// copy of build — or, when build is nil, of the stored backend's batch
// scan (see the file comment) — charging every buffered row to m. The
// caller releases held from m when done with the columns. Exactly one
// of build and stored must be non-nil.
func ReplaySide(build BatchCursor, stored rel.StoredRel, m *Meter, capacity int) (cols [][]uint32, dict *rel.Interner, rows, held int) {
	if build == nil {
		if r, ok := stored.(*rel.Relation); ok {
			cols, dict = r.IDColumns()
			return cols, dict, r.Len(), 0
		}
		build = stored.BatchScanSized(capacity)
	}
	s := newColStore()
	for b, ok := build.NextBatch(); ok; b, ok = build.NextBatch() {
		s.append(b)
		m.Grow(b.Len())
		b.Release()
	}
	return s.cols, s.dict, s.n, s.n
}

// BuildTable is the build side of the equality-keyed operators — the
// hash join here and sa's semijoins: the distinct equality-key rows in
// an IDSet and, unless the operator needs only those, every build row
// in a colStore, the rows of each key chained in build order. A probe
// finds its key row once and then walks exactly the build rows with
// that key, so equality atoms are never re-verified; only residual
// (non-equality) atoms are evaluated per candidate. The table charges
// the meter as it is built — one per distinct key, or one per build
// row — and Held reports the charge for the caller to release.
type BuildTable struct {
	keys  *IDSet
	rows  *colStore // every build row; nil when only the keys are kept
	first []int32   // per key: 1 + its first build row
	next  []int32   // per build row: 1 + the next build row with its key (0 ends)
	held  int
}

// NewBuildTable drains in into a table keyed on the build columns
// keyCols (0-based). keysOnly keeps the distinct key rows alone, which
// is all a semijoin without residual atoms needs.
func NewBuildTable(in BatchCursor, keyCols []int, keysOnly bool, m *Meter) *BuildTable {
	t := &BuildTable{keys: NewIDSet(len(keyCols))}
	if keysOnly {
		for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				if _, fresh := t.keys.insert(b, row, keyCols); fresh {
					m.Grow(1)
					t.held++
				}
			}
			b.Release()
		}
		return t
	}
	t.rows = newColStore()
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
		m.Grow(n)
		t.held += n
		b.Release()
	}
	return t
}

// Held returns the number of rows the table charged to the meter.
func (t *BuildTable) Held() int { return t.held }

// candidates returns 1 + the first build row whose key equals probe
// row `row` of b read through probeCols (0-based, aligned with the
// table's key columns), 0 when no build row has that key.
func (t *BuildTable) candidates(b *rel.Batch, row int, probeCols []int) int32 {
	k := t.keys.find(b, row, probeCols)
	if k < 0 {
		return 0
	}
	return t.first[k]
}

// holds reports whether build row brow satisfies every residual atom
// against probe row `row` of b.
func (t *BuildTable) holds(resid []Atom, b *rel.Batch, row, brow int) bool {
	for _, at := range resid {
		if !at.Op.Eval(b.Value(at.L-1, row), t.rows.dict.Value(t.rows.cols[at.R-1][brow])) {
			return false
		}
	}
	return true
}

// Partner reports whether probe row `row` of b has a build row with
// its key (read through probeCols) that satisfies every residual atom:
// the semijoin's test. A keys-only table answers from its keys alone,
// so it must be built only for a condition without residual atoms.
func (t *BuildTable) Partner(b *rel.Batch, row int, probeCols []int, resid []Atom) bool {
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

// vecHashJoinCursor is the equality-keyed hash join: the build side is
// materialized into a BuildTable, and probe batches stream against it —
// each probe row resolves its key once, walks the build rows with
// exactly that key, and decodes values only for residual
// (non-equality) atoms. Output batches carry the probe side's
// dictionaries on the left columns and the table's on the right, so
// nothing is re-interned on the way out.
type vecHashJoinCursor struct {
	left      BatchCursor
	buildC    BatchCursor
	probeCols []int // 0-based probe columns of the equality atoms
	buildCols []int // 0-based build columns of the equality atoms
	resid     []Atom
	meter     *Meter
	capacity  int

	opened bool
	table  *BuildTable
	held   int

	probe *rel.Batch
	prow  int
	cand  int32 // 1 + the next candidate build row, 0 when exhausted
	out   *rel.Batch
}

func newVecHashJoinCursor(left, buildC BatchCursor, cond Cond, eqs [][2]int, m *Meter, capacity int) *vecHashJoinCursor {
	c := &vecHashJoinCursor{
		left: left, buildC: buildC, meter: m, capacity: capacity,
		probeCols: make([]int, len(eqs)), buildCols: make([]int, len(eqs)),
	}
	for x, p := range eqs {
		c.probeCols[x], c.buildCols[x] = p[0]-1, p[1]-1
	}
	for _, at := range cond {
		if at.Op != OpEq {
			c.resid = append(c.resid, at)
		}
	}
	m.Watch(c)
	return c
}

// ReleaseHeld implements rel.BatchHolder: the hash join retains the
// probe batch and the staging output batch across NextBatch calls;
// both are released when an abort unwinds through the cursor.
func (c *vecHashJoinCursor) ReleaseHeld() {
	p, o := c.probe, c.out
	c.probe, c.out = nil, nil
	p.Release()
	o.Release()
}

func (c *vecHashJoinCursor) emit(brow int) {
	la := c.probe.Arity()
	rs := c.table.rows
	if c.out == nil {
		c.out = rel.NewBatchSized(la+len(rs.cols), c.capacity)
		for k := 0; k < la; k++ {
			c.out.SetDict(k, c.probe.Dict(k))
		}
		for k := range rs.cols {
			c.out.SetDict(la+k, rs.dict)
		}
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

func (c *vecHashJoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.table = NewBuildTable(c.buildC, c.buildCols, false, c.meter)
		c.held = c.table.Held()
	}
	for {
		if c.probe == nil {
			// Flush at probe-batch boundaries, so one output batch never
			// mixes left columns from two probe dictionaries.
			if c.out != nil && c.out.Len() > 0 {
				o := c.out
				c.out = nil
				return o, true
			}
			b, ok := c.left.NextBatch()
			if !ok {
				c.out.Release()
				c.out = nil
				c.meter.Release(c.held)
				c.held = 0
				c.table = nil
				return nil, false
			}
			if b.Len() == 0 {
				b.Release()
				continue
			}
			c.probe, c.prow = b, 0
			c.cand = c.table.candidates(c.probe, c.prow, c.probeCols)
		}
		if c.cand == 0 {
			c.prow++
			if c.prow >= c.probe.Len() {
				c.probe.Release()
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
			o := c.out
			c.out = nil
			return o, true
		}
	}
}

// vecLoopJoinCursor handles joins without equality atoms. The right
// side is opened by ReplaySide: the stored in-memory relation's ID
// columns replayed in place (zero copies, nothing held), or a
// materialized column store (computed right child, or a stored
// relation on a non-in-memory backend — see the file comment). The
// empty condition — the cartesian product — is a pure block copy: the
// probe value is broadcast down the left columns while the right
// columns are copied in slabs.
type vecLoopJoinCursor struct {
	left     BatchCursor
	buildC   BatchCursor
	stored   rel.StoredRel
	cond     Cond
	meter    *Meter
	capacity int

	opened bool
	rcols  [][]uint32
	rdict  *rel.Interner
	rn     int
	held   int

	probe *rel.Batch
	prow  int
	ri    int
	out   *rel.Batch
}

// ReleaseHeld implements rel.BatchHolder: the loop join retains the
// probe batch and the staging output batch across NextBatch calls;
// both are released when an abort unwinds through the cursor.
func (c *vecLoopJoinCursor) ReleaseHeld() {
	p, o := c.probe, c.out
	c.probe, c.out = nil, nil
	p.Release()
	o.Release()
}

func (c *vecLoopJoinCursor) ensureOut() {
	if c.out != nil {
		return
	}
	la := c.probe.Arity()
	c.out = rel.NewBatchSized(la+len(c.rcols), c.capacity)
	for k := 0; k < la; k++ {
		c.out.SetDict(k, c.probe.Dict(k))
	}
	for k := range c.rcols {
		c.out.SetDict(la+k, c.rdict)
	}
}

func (c *vecLoopJoinCursor) holds() bool {
	for _, at := range c.cond {
		if !at.Op.Eval(c.probe.Value(at.L-1, c.prow), c.rdict.Value(c.rcols[at.R-1][c.ri])) {
			return false
		}
	}
	return true
}

func (c *vecLoopJoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.rcols, c.rdict, c.rn, c.held = ReplaySide(c.buildC, c.stored, c.meter, c.capacity)
	}
	for {
		if c.probe == nil {
			if c.out != nil && c.out.Len() > 0 {
				o := c.out
				c.out = nil
				return o, true
			}
			b, ok := c.left.NextBatch()
			if !ok {
				c.out.Release()
				c.out = nil
				c.meter.Release(c.held)
				c.held = 0
				c.rcols, c.rdict = nil, nil
				return nil, false
			}
			if b.Len() == 0 {
				b.Release()
				continue
			}
			c.probe, c.prow, c.ri = b, 0, 0
		}
		if c.prow >= c.probe.Len() {
			c.probe.Release()
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
				o := c.out
				c.out = nil
				return o, true
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
				o := c.out
				c.out = nil
				return o, true
			}
			continue
		}
		c.ri++
	}
}

// The constructors below are how internal/plan's builder reaches the
// operator cursors. Column indices are 1-based, as in the expression
// nodes.

// NewSelectBatchCursor streams σ_{i op j} over batches (columns
// 1-based).
func NewSelectBatchCursor(in BatchCursor, i int, op Op, j int) BatchCursor {
	return &vecSelectCursor{in: in, i: i - 1, op: op, j: j - 1}
}

// NewSelectConstBatchCursor streams σ_{i=c} over batches (i 1-based).
func NewSelectConstBatchCursor(in BatchCursor, i int, c rel.Value) BatchCursor {
	return &vecSelectConstCursor{in: in, i: i - 1, c: c}
}

// NewConstTagBatchCursor streams τ_c over batches.
func NewConstTagBatchCursor(in BatchCursor, c rel.Value) BatchCursor {
	return newVecTagCursor(in, c)
}

// NewProjectBatchCursor streams π_{cols} over batches (cols 1-based);
// deduplication is deferred to the consuming sink.
func NewProjectBatchCursor(in BatchCursor, cols []int) BatchCursor {
	return &vecProjectCursor{in: in, cols: cols}
}

// NewDedupBatchCursor passes each distinct row of in through exactly
// once, holding one metered row per distinct input until exhaustion.
func NewDedupBatchCursor(in BatchCursor, arity int, m *Meter) BatchCursor {
	return &vecDedupCursor{in: in, arity: arity, meter: m}
}

// NewUnionSinkBatchCursor drains both inputs into one deduplicated
// IDSet and streams it out in insertion order, releasing the held
// state at exhaustion.
func NewUnionSinkBatchCursor(l, r BatchCursor, arity int, m *Meter, capacity int) BatchCursor {
	return &vecUnionCursor{l: l, r: r, arity: arity, meter: m, capacity: capacity}
}

// NewDiffBatchCursor streams left through a membership filter against
// the subtrahend: a stored relation is probed in place (holding
// nothing), otherwise build is materialized first. Exactly one of
// build and stored must be non-nil.
func NewDiffBatchCursor(left, build BatchCursor, stored rel.StoredRel, arity int, m *Meter) BatchCursor {
	return &vecDiffCursor{in: left, buildC: build, stored: stored, arity: arity, meter: m}
}

// NewHashJoinBatchCursor builds the equality-keyed vectorized hash
// join: the build side is materialized into a BuildTable keyed on the
// equality columns, and probe batches stream against it. cond must
// contain at least one equality atom.
func NewHashJoinBatchCursor(left, build BatchCursor, cond Cond, m *Meter, capacity int) BatchCursor {
	eqs := cond.EqPairs()
	if len(eqs) == 0 {
		panic("ra: NewHashJoinBatchCursor requires an equality atom")
	}
	return newVecHashJoinCursor(left, build, cond, eqs, m, capacity)
}

// NewLoopJoinBatchCursor replays the right side per probe row — in
// place (zero copies, nothing held) when stored is the in-memory
// relation, otherwise from a materialized, metered column store (see
// the file comment for the one resident-parity exception). Exactly one
// of build and stored must be non-nil.
func NewLoopJoinBatchCursor(left, build BatchCursor, stored rel.StoredRel, cond Cond, m *Meter, capacity int) BatchCursor {
	c := &vecLoopJoinCursor{left: left, buildC: build, stored: stored, cond: cond, meter: m, capacity: capacity}
	m.Watch(c)
	return c
}
