package rel

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is a finite set of tuples of a fixed arity. Relations have
// set semantics (no duplicates) as in Definition 1; insertion order is
// preserved for deterministic iteration, which keeps tests and
// benchmark output stable.
//
// A relation is stored as its columns and nothing else: each relation
// owns an Interner, every insert path (Add, AddBatch, the text loader)
// reduces its row to IDs in that dictionary and goes through one insert
// core, addIDs, and the IDs are kept in flat per-attribute columns
// (struct-of-arrays) — 4 bytes per value. The columns are what
// BatchScan emits — the executor scans stored relations without
// re-interning a single value — and what the deduplication probes
// compare, turning candidate verification into uint32 comparisons. No
// decoded row is kept beside them: Tuples, Sorted, Cursor and At decode
// rows from columns and dictionary when asked, into storage the caller
// then owns, and no accessor caches what it decoded, so reading a
// relation never writes to it. Add and Contains never build the
// Tuple.Key string encodings (those remain available to callers that
// need an injective encoding without a dictionary).
//
// The ID columns and the dedup index over them are one RowSet, the
// module's row index: insertion-ordered columns under chained buckets,
// at least two per tuple, re-chained only inside Add, AddBatch and
// Reserve — the writer side — so probing a sealed relation never
// writes. The relation does not hand the RowSet out: IDColumns exposes
// the columns read-only, and the index stays private.
type Relation struct {
	arity  int
	rows   RowSet // the ID columns, one entry per stored tuple, and their dedup index
	intern *Interner
	idbuf  []uint32 // scratch for the insert paths, avoids per-call allocation
	xlat   *IDMap   // lazy translation cache for AddBatch sinks
}

// NewRelation returns an empty relation of the given arity. Arity 0 is
// allowed: the two arity-0 relations {} and {()} act as boolean false
// and true, which several algebraic rewrites rely on.
func NewRelation(arity int) *Relation {
	if arity < 0 {
		panic("rel: negative arity")
	}
	return &Relation{
		arity:  arity,
		rows:   RowSet{cols: make([][]uint32, arity)},
		intern: NewInterner(),
		idbuf:  make([]uint32, arity),
	}
}

// NewRelationSized is NewRelation followed by Reserve(n): an empty
// relation whose ID columns and dedup index start at the size n tuples
// need instead of growing from zero through every doubling. Evaluator
// sinks and store materialization use it whenever a cardinality (or a
// decent estimate) is known up front.
func NewRelationSized(arity, n int) *Relation {
	r := NewRelation(arity)
	r.Reserve(n)
	return r
}

// Reserve grows the relation's storage — the ID columns and the dedup
// index (chain links and buckets) — to hold n more tuples without
// reallocation or re-chaining. It is a capacity hint: contents,
// insertion order and IDs are unchanged, and inserting more than n
// tuples afterwards just resumes amortized growth. The dictionary is
// not sized: how many distinct values n tuples bring is not known here.
func (r *Relation) Reserve(n int) { r.rows.reserve(n) }

// Interner exposes the relation's value dictionary: every value
// occurring in the relation has an ID, in first-occurrence order. The
// dictionary is read-only for callers; concurrent reads are safe as
// long as no Add runs.
func (r *Relation) Interner() *Interner { return r.intern }

// FromTuples builds a relation of the given arity from tuples,
// deduplicating as it goes. It panics if a tuple has the wrong arity.
func FromTuples(arity int, ts ...Tuple) *Relation {
	r := NewRelation(arity)
	for _, t := range ts {
		r.Add(t)
	}
	return r
}

// FromRows builds a binary-or-wider relation from rows of int64s.
func FromRows(arity int, rows ...[]int64) *Relation {
	r := NewRelation(arity)
	for _, row := range rows {
		if len(row) != arity {
			panic(fmt.Sprintf("rel: row arity %d, want %d", len(row), arity))
		}
		r.Add(Ints(row...))
	}
	return r
}

// Arity returns the arity of the relation.
func (r *Relation) Arity() int { return r.arity }

// Len returns the cardinality of the relation — its "size" in the sense
// of Definition 15.
func (r *Relation) Len() int { return r.rows.n }

// Add inserts a tuple, ignoring duplicates. It reports whether the
// tuple was new. It panics if the tuple has the wrong arity. The
// relation keeps the IDs of t's values, not t: the caller keeps
// ownership of t, and an accepted tuple costs one uint32 per column
// plus its share of the index — the amortized growth of the columns,
// the chain links and the buckets, and nothing at all into storage a
// Reserve has sized (a value seen for the first time also grows the
// dictionary).
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("rel: tuple arity %d inserted into relation of arity %d", len(t), r.arity))
	}
	ids := r.idbuf
	for i, v := range t {
		ids[i] = r.intern.Intern(v)
	}
	return r.addIDs(ids)
}

// addIDs is the insert core shared by Add, AddBatch and the text
// loader: it inserts the tuple whose components have the given IDs in
// the relation's own dictionary unless it is already stored, and
// reports whether it was new. ids is read, not retained.
func (r *Relation) addIDs(ids []uint32) bool {
	_, fresh := r.rows.Insert(ids)
	return fresh
}

// Contains reports membership of t in the relation. It is read-only
// and safe for concurrent use with other readers.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	var buf [4]uint32
	ids := buf[:0]
	for _, v := range t {
		id, ok := r.intern.ID(v)
		if !ok {
			return false // a value the relation has never seen
		}
		ids = append(ids, id)
	}
	return r.ContainsIDs(ids)
}

// ContainsIDs reports membership of the tuple whose components have
// the given IDs in the relation's own dictionary — the probe primitive
// of the vectorized difference and division operators, which translate
// batch IDs once and then probe without touching values. Read-only and
// safe for concurrent use with other readers.
func (r *Relation) ContainsIDs(ids []uint32) bool {
	return len(ids) == r.arity && r.rows.Find(ids) >= 0
}

// AddBatch inserts every row of the batch in row order, deduplicating
// exactly like Add, and reports how many rows were new. Batch IDs are
// translated into the relation's dictionary through a cached IDMap, so
// a sink fed by a long batch stream interns each distinct (dictionary,
// ID) pair once and then runs on array lookups. The batch is read, not
// retained; the caller keeps ownership. The cache pins the source
// dictionaries it has seen — call DropBatchCache once the stream is
// exhausted so a long-lived result relation does not keep a whole
// plan's dictionaries reachable.
func (r *Relation) AddBatch(b *Batch) int {
	if b.Arity() != r.arity {
		panic(fmt.Sprintf("rel: batch arity %d added to relation of arity %d", b.Arity(), r.arity))
	}
	if r.xlat == nil {
		r.xlat = NewIDMap(r.intern)
	}
	x := r.xlat
	// Each column's translation slice is looked up once per batch, not
	// once per value: the columns of one batch may carry different
	// dictionaries (a join output carries each side's through), and the
	// IDMap's one-entry memo would then miss on every value.
	var few [4][]uint32
	trs := few[:min(r.arity, len(few))]
	if r.arity > len(few) {
		trs = make([][]uint32, r.arity)
	}
	for k, d := range b.dicts {
		trs[k] = x.m[d]
	}
	ids := r.idbuf
	added := 0
	for row := 0; row < b.Len(); row++ {
		for k, tr := range trs {
			id := b.cols[k][row]
			if d := b.dicts[k]; d != r.intern {
				if int(id) < len(tr) && tr[id] >= xlatOffset {
					id = tr[id] - xlatOffset
				} else {
					// First sight of the value. Intern leaves d's slice,
					// regrown if id lay beyond it, in the memo. Another
					// column sharing d may keep reading the slice from
					// before the regrowth: what it holds stays valid, and
					// what it lacks sends that column here too.
					id = x.Intern(d, id)
					trs[k] = x.lastTr
				}
			}
			ids[k] = id
		}
		if r.addIDs(ids) {
			added++
		}
	}
	return added
}

// row decodes the stored tuple at position pos into buf, which must
// have the relation's arity, and returns buf.
func (r *Relation) row(buf Tuple, pos int) Tuple {
	for k, col := range r.rows.cols {
		buf[k] = r.intern.vals[col[pos]]
	}
	return buf
}

// arenaRows returns n zeroed tuples of the given arity over one arena:
// two allocations whatever n. Each tuple's capacity ends at its own
// storage, so an append by a caller can never run into the next tuple's
// values.
func arenaRows(n, arity int) []Tuple {
	arena := make([]Value, n*arity)
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple(arena[i*arity : (i+1)*arity : (i+1)*arity])
	}
	return ts
}

// Tuples returns the tuples in insertion order, decoded from the ID
// columns into one fresh arena. Slice and tuples belong to the caller,
// which may reorder, truncate or modify them freely: nothing it does to
// them reaches the relation.
func (r *Relation) Tuples() []Tuple {
	ts := arenaRows(r.rows.n, r.arity)
	for pos, t := range ts {
		r.row(t, pos)
	}
	return ts
}

// Cursor returns an iterator over the tuples in insertion order that
// decodes them a chunk at a time, so a scan never holds the whole
// relation in row form the way Tuples() does. The yielded tuples belong
// to the caller; the relation must not be modified while the cursor is
// in use.
func (r *Relation) Cursor() *Cursor { return scanTuples(r) }

// Cursor iterates a stored relation's tuples in insertion order,
// decoding its batch scan: the module's one decode of batches into
// rows. The zero Cursor is not usable; obtain one from
// Relation.Cursor.
type Cursor struct {
	in   BatchCursor
	rows []Tuple // decoded and not yet yielded
}

// arenaChunkRows is how many tuples a Cursor decodes at a time: one
// arena allocation backs this many yielded tuples.
const arenaChunkRows = 256

// scanTuples returns the tuple cursor over any stored relation — the
// row reader of CopyStore, StoresEqual and the text writer.
func scanTuples(v StoredRel) *Cursor { return &Cursor{in: v.BatchScanSized(arenaChunkRows)} }

// Next returns the next tuple, or (nil, false) when the cursor is
// exhausted. The tuple is the caller's to keep and to modify: each
// batch is decoded whole into fresh storage, one arena per batch, and
// released at once, never into a buffer the cursor reuses, because
// callers do retain what they are handed.
func (c *Cursor) Next() (Tuple, bool) {
	for len(c.rows) == 0 {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		c.rows = arenaRows(b.Len(), b.Arity())
		for row, t := range c.rows {
			b.Row(t, row)
		}
		b.Release()
	}
	t := c.rows[0]
	c.rows = c.rows[1:]
	return t, true
}

// BatchScan is BatchScanSized at the default batch size.
func (r *Relation) BatchScan() BatchCursor { return r.BatchScanSized(BatchCap) }

// BatchScanSized implements StoredRel: columnar batches of at most size
// rows (size < 1 means BatchCap) over the relation's stored ID columns
// in insertion order, without decoding or re-interning anything. The
// yielded batches are views aliasing the relation's storage —
// read-only, valid until the next NextBatch call, their Release a no-op
// — so a full scan allocates nothing per row. The relation must not be
// modified while the cursor is in use.
func (r *Relation) BatchScanSized(size int) BatchCursor {
	if size < 1 {
		size = BatchCap
	}
	c := &relBatchCursor{r: r, size: size}
	c.view.view = true
	c.view.cols = make([][]uint32, r.arity)
	c.view.dicts = make([]*Interner, r.arity)
	for k := range c.view.dicts {
		c.view.dicts[k] = r.intern
	}
	return c
}

// relBatchCursor yields view batches over a relation's ID columns. The
// single view batch is re-sliced per call, so the previous batch is
// invalidated by the next NextBatch — exactly the ownership contract.
type relBatchCursor struct {
	r    *Relation
	size int
	i    int
	view Batch
}

func (c *relBatchCursor) NextBatch() (*Batch, bool) {
	n := c.r.rows.n
	if c.i >= n {
		return nil, false
	}
	hi := c.i + c.size
	if hi > n {
		hi = n
	}
	for k := range c.view.cols {
		c.view.cols[k] = c.r.rows.cols[k][c.i:hi]
	}
	c.view.n = hi - c.i
	c.view.capacity = c.view.n
	c.i = hi
	return &c.view, true
}

// At returns the tuple at position i in insertion order, decoded into
// a tuple of its own that belongs to the caller (one allocation per
// call: a walk over many positions wants Cursor, Tuples or the ID
// columns). It panics when i is not a position of the relation.
func (r *Relation) At(i int) Tuple {
	if i < 0 || i >= r.rows.n {
		panic(fmt.Sprintf("rel: position %d outside relation of %d tuples", i, r.rows.n))
	}
	return r.row(make(Tuple, r.arity), i)
}

// DropBatchCache releases the AddBatch translation cache and the
// source dictionaries it references. Call it when a batch stream has
// been fully drained; a later AddBatch simply rebuilds the cache.
func (r *Relation) DropBatchCache() { r.xlat = nil }

// IDColumns returns the relation's stored ID columns and the
// dictionary decoding them — the zero-copy substrate of the vectorized
// executors' in-place operators (a cartesian join replays a stored
// relation by block-copying its columns). Both are read-only views of
// live storage: the relation must not be modified while they are held.
func (r *Relation) IDColumns() ([][]uint32, *Interner) { return r.rows.cols, r.intern }

// Sorted returns the tuples in lexicographic order, caller-owned like
// the result of Tuples.
func (r *Relation) Sorted() []Tuple {
	ts := r.Tuples()
	sort.Slice(ts, func(i, j int) bool { return ts[i].Cmp(ts[j]) < 0 })
	return ts
}

// Clone returns a deep copy of the relation: a copy of the ID columns,
// of the dedup index as it stands and of the dictionary — nothing is
// re-hashed or re-interned, so the copy has the original's IDs, chains
// and scan order. It shares nothing mutable with the original: adds to
// either side after cloning, re-chaining included, can never reach the
// other (regression-tested in TestCloneInternerIndependence). It is
// the copy-on-write step of the epoch writer.
func (r *Relation) Clone() *Relation {
	return &Relation{
		arity:  r.arity,
		rows:   r.rows.clone(),
		intern: r.intern.Clone(),
		idbuf:  make([]uint32, r.arity),
	}
}

// Equal reports whether two relations hold exactly the same set of
// tuples (arity included).
func (r *Relation) Equal(s *Relation) bool {
	if r.arity != s.arity || r.Len() != s.Len() {
		return false
	}
	buf := make(Tuple, r.arity)
	for pos := 0; pos < r.Len(); pos++ {
		if !s.Contains(r.row(buf, pos)) {
			return false
		}
	}
	return true
}

// Union returns r ∪ s. Both relations must have the same arity.
func (r *Relation) Union(s *Relation) *Relation {
	mustSameArity(r, s)
	out := r.Clone()
	buf := make(Tuple, s.arity)
	for pos := 0; pos < s.Len(); pos++ {
		out.Add(s.row(buf, pos))
	}
	return out
}

// Diff returns r − s. Both relations must have the same arity.
func (r *Relation) Diff(s *Relation) *Relation {
	mustSameArity(r, s)
	out := NewRelation(r.arity)
	buf := make(Tuple, r.arity)
	for pos := 0; pos < r.Len(); pos++ {
		if t := r.row(buf, pos); !s.Contains(t) {
			out.Add(t)
		}
	}
	return out
}

// Intersect returns r ∩ s. Both relations must have the same arity.
func (r *Relation) Intersect(s *Relation) *Relation {
	mustSameArity(r, s)
	out := NewRelation(r.arity)
	small, large := r, s
	if s.Len() < r.Len() {
		small, large = s, r
	}
	buf := make(Tuple, small.arity)
	for pos := 0; pos < small.Len(); pos++ {
		if t := small.row(buf, pos); large.Contains(t) {
			out.Add(t)
		}
	}
	return out
}

// Project returns π_{idx}(r) with 1-based indices, which may repeat and
// reorder columns (Definition 1(3)).
func (r *Relation) Project(idx ...int) *Relation {
	for _, i := range idx {
		if i < 1 || i > r.arity {
			panic(fmt.Sprintf("rel: projection index %d out of range 1..%d", i, r.arity))
		}
	}
	out := NewRelation(len(idx))
	buf := make(Tuple, len(idx))
	for pos := 0; pos < r.Len(); pos++ {
		for p, i := range idx {
			buf[p] = r.intern.vals[r.rows.cols[i-1][pos]]
		}
		out.Add(buf)
	}
	return out
}

// Values returns the sorted set of all values occurring in the
// relation.
func (r *Relation) Values() []Value {
	seen := make([]bool, r.intern.Len())
	var vs []Value
	for _, col := range r.rows.cols {
		for _, id := range col {
			if !seen[id] {
				seen[id] = true
				vs = append(vs, r.intern.vals[id])
			}
		}
	}
	return Tuple(vs).Set()
}

// String renders the relation as a sorted list of tuples, one per line.
func (r *Relation) String() string {
	var b strings.Builder
	for _, t := range r.Sorted() {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func mustSameArity(r, s *Relation) {
	if r.arity != s.arity {
		panic(fmt.Sprintf("rel: arity mismatch %d vs %d", r.arity, s.arity))
	}
}
