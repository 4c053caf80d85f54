package rel

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// checkedRows drives a RowSet and a model of it — the rows in
// insertion order and a Go map from each row's canonical encoding to
// its position — through the same operations and fails on the first
// difference. The model shares nothing with the RowSet, not even
// HashIDs, so an index bug cannot hide behind the relation-based
// oracles that every executor test uses. Beside them, one is a second
// RowSet that takes every row through Insert alone, so that sweep can
// hold the batch path to leaving the very index the one-row path does.
// A new row past maxRows must panic, leaving the set as it was.
type checkedRows struct {
	t    testing.TB
	s    *RowSet
	one  *RowSet
	rows [][]uint32
	pos  map[string]int
}

func newCheckedRows(t testing.TB, width int) *checkedRows {
	return &checkedRows{t: t, s: NewRowSet(width), one: NewRowSet(width), pos: map[string]int{}}
}

// panicOf runs f and returns what it panics with, nil when it returns.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// rowKey is the model's canonical encoding of a row: its IDs as
// little-endian bytes.
func rowKey(ids []uint32) string {
	b := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(b[4*i:], id)
	}
	return string(b)
}

func (c *checkedRows) insert(ids []uint32) {
	c.t.Helper()
	want, seen := c.pos[rowKey(ids)]
	if !seen && len(c.rows) >= maxRows {
		if p := panicOf(func() { c.s.Insert(ids) }); p != errRowSetFull {
			c.t.Fatalf("Insert(%v) into a full set of %d rows: panic %v, want %q", ids, len(c.rows), p, errRowSetFull)
		}
		if c.s.Len() != len(c.rows) {
			c.t.Fatalf("a refused Insert left %d rows, model holds %d", c.s.Len(), len(c.rows))
		}
		return
	}
	got, fresh := c.s.Insert(ids)
	c.one.Insert(ids)
	if !seen {
		want = len(c.rows)
		c.pos[rowKey(ids)] = want
		c.rows = append(c.rows, slices.Clone(ids))
	}
	if got != want || fresh == seen {
		c.t.Fatalf("Insert(%v) = %d, %v; model says %d, %v", ids, got, fresh, want, !seen)
	}
	if c.s.Len() != len(c.rows) {
		c.t.Fatalf("Len = %d, model holds %d", c.s.Len(), len(c.rows))
	}
}

// insertBatch inserts rows as one batch through RowSet.insertBatch and
// checks the count it returns, each row's fresh flag and each row's
// position against the model, which takes the rows one at a time in
// batch order: a row repeated inside the batch is fresh only the first
// time, and a new row past maxRows panics with the rows before it in.
func (c *checkedRows) insertBatch(rows [][]uint32) {
	c.t.Helper()
	cols := make([][]uint32, len(c.s.cols))
	for _, ids := range rows {
		for k, id := range ids {
			cols[k] = append(cols[k], id)
		}
	}
	fresh := make([]bool, len(rows))
	added := 0
	p := panicOf(func() { added = c.s.insertBatch(cols, len(rows), fresh) })
	want, full := 0, false
	for i, ids := range rows {
		_, seen := c.pos[rowKey(ids)]
		if !seen {
			if full = len(c.rows) >= maxRows; full {
				break
			}
			c.pos[rowKey(ids)] = len(c.rows)
			c.rows = append(c.rows, slices.Clone(ids))
			want++
		}
		c.one.Insert(ids)
		if fresh[i] == seen {
			c.t.Fatalf("insertBatch row %d %v: fresh %v, model says %v", i, ids, fresh[i], !seen)
		}
	}
	switch {
	case full && p != errRowSetFull:
		c.t.Fatalf("insertBatch past maxRows %d: panic %v, want %q", maxRows, p, errRowSetFull)
	case !full && p != nil:
		panic(p)
	case !full && added != want:
		c.t.Fatalf("insertBatch of %d rows added %d; model added %d", len(rows), added, want)
	}
	if c.s.Len() != len(c.rows) {
		c.t.Fatalf("insertBatch of %d rows left %d, model holds %d", len(rows), c.s.Len(), len(c.rows))
	}
	for _, ids := range rows {
		c.find(ids)
	}
}

func (c *checkedRows) find(ids []uint32) {
	c.t.Helper()
	want, seen := c.pos[rowKey(ids)]
	if !seen {
		want = -1
	}
	if got := c.s.Find(ids); got != want {
		c.t.Fatalf("Find(%v) = %d, model says %d", ids, got, want)
	}
}

// findBatch probes rows as one batch through RowSet.FindBatch and
// checks every row's answer against the model. hit starts out the
// opposite of the model's answer, so a row FindBatch skips shows, and
// runs a row longer than the batch, which FindBatch must not touch.
func (c *checkedRows) findBatch(rows [][]uint32) {
	c.t.Helper()
	cols := make([][]uint32, len(c.s.cols))
	for _, ids := range rows {
		for k, id := range ids {
			cols[k] = append(cols[k], id)
		}
	}
	hit := make([]bool, len(rows)+1)
	for i, ids := range rows {
		_, held := c.pos[rowKey(ids)]
		hit[i] = !held
	}
	hit[len(rows)] = true
	c.s.FindBatch(cols, len(rows), hit)
	for i, ids := range rows {
		if _, held := c.pos[rowKey(ids)]; hit[i] != held {
			c.t.Fatalf("FindBatch row %d of %d %v: hit %v, model says %v", i, len(rows), ids, hit[i], held)
		}
	}
	if !hit[len(rows)] {
		c.t.Fatalf("FindBatch of %d rows wrote past them", len(rows))
	}
}

// probeRows returns n rows for a batch probe: about half of them rows
// the set holds and the rest rows it has never held, shuffled.
func (c *checkedRows) probeRows(rng *rand.Rand, n int, miss func() []uint32) [][]uint32 {
	rows := make([][]uint32, n)
	for i := range rows {
		if len(c.rows) > 0 && rng.Intn(2) == 0 {
			rows[i] = c.rows[rng.Intn(len(c.rows))]
		} else {
			rows[i] = miss()
		}
	}
	return rows
}

// reserve reserves room for n more rows and checks the promise: n
// fresh inserts afterwards neither re-chain the index nor move a
// column. It leaves those n rows inserted.
func (c *checkedRows) reserve(n int, fresh func() []uint32) {
	c.t.Helper()
	c.s.reserve(n)
	c.one.reserve(n)
	buckets := len(c.s.heads)
	if n > 0 && buckets < len(c.rows)+n {
		c.t.Fatalf("reserve(%d) at %d rows left %d buckets", n, len(c.rows), buckets)
	}
	caps := make([]int, len(c.s.cols))
	for k, col := range c.s.cols {
		caps[k] = cap(col)
	}
	for i := 0; i < n; i++ {
		c.insert(fresh())
	}
	if len(c.s.heads) != buckets {
		c.t.Fatalf("%d inserts after reserve(%d) re-chained %d buckets into %d", n, n, buckets, len(c.s.heads))
	}
	for k, col := range c.s.cols {
		if cap(col) != caps[k] {
			c.t.Fatalf("%d inserts after reserve(%d) reallocated column %d", n, n, k)
		}
	}
}

// sweep checks the whole set against the model: every row at its
// position in the columns and found there, and the shape of the index —
// a power of two of at least one bucket per row, every row on exactly
// one chain, the one of its hash's bucket, chains newest first, and
// each bucket word's tag bits exactly the OR of its chain's rows' bits,
// so a writer that drops a bit or keeps a stale one fails — and the
// index itself: the one the rows left when inserted one at a time.
func (c *checkedRows) sweep() {
	c.t.Helper()
	n := len(c.rows)
	if c.s.Len() != n {
		c.t.Fatalf("Len = %d, model holds %d", c.s.Len(), n)
	}
	if !slices.Equal(c.s.heads, c.one.heads) || !slices.Equal(c.s.next, c.one.next) || !slices.EqualFunc(c.s.cols, c.one.cols, slices.Equal) {
		c.t.Fatalf("the set's index differs from the one its rows leave when inserted one at a time")
	}
	cols := c.s.Cols()
	for k, col := range cols {
		if len(col) != n {
			c.t.Fatalf("column %d holds %d IDs for %d rows", k, len(col), n)
		}
	}
	for p, ids := range c.rows {
		for k, id := range ids {
			if cols[k][p] != id {
				c.t.Fatalf("row %d column %d = %d, model says %d", p, k, cols[k][p], id)
			}
		}
		if got := c.s.Find(ids); got != p {
			c.t.Fatalf("Find(%v) = %d, want %d", ids, got, p)
		}
	}
	b := len(c.s.heads)
	if n == 0 {
		return
	}
	if b&(b-1) != 0 || b < minBuckets || b < n {
		c.t.Fatalf("%d buckets for %d rows: want a power of two, at least %d and one per row", b, n, minBuckets)
	}
	on := 0
	for bucket, word := range c.s.heads {
		prev, tags := int32(n+1), uint32(0)
		for p := int32(uint32(word)); p != 0; p = c.s.next[p-1] {
			if p >= prev {
				c.t.Fatalf("bucket %d chains row %d after row %d: not newest first", bucket, p-1, prev-1)
			}
			h := HashIDs(c.rows[p-1])
			if h&uint64(b-1) != uint64(bucket) {
				c.t.Fatalf("row %d chained in bucket %d, not its hash's", p-1, bucket)
			}
			tags |= 1 << (h >> 59)
			prev = p
			on++
		}
		if uint32(word>>32) != tags {
			c.t.Fatalf("bucket %d's tag bits are %#x, its chain's rows set %#x", bucket, word>>32, tags)
		}
	}
	if on != n {
		c.t.Fatalf("%d rows on the chains, %d held", on, n)
	}
}

func (c *checkedRows) clone() *checkedRows {
	s, one := c.s.clone(), c.one.clone()
	rows := make([][]uint32, len(c.rows))
	for i, r := range c.rows {
		rows[i] = slices.Clone(r)
	}
	return &checkedRows{t: c.t, s: &s, one: &one, rows: rows, pos: maps.Clone(c.pos)}
}

// randomRow draws a row of the set's width over [0, domain).
func (c *checkedRows) randomRow(rng *rand.Rand, domain int) []uint32 {
	ids := make([]uint32, len(c.s.cols))
	for k := range ids {
		ids[k] = uint32(rng.Intn(domain))
	}
	return ids
}

// freshRows returns a source of rows the set has never held, of the
// set's width: a counter spread over the columns, offset by base.
func freshRows(width int, base uint32) func() []uint32 {
	next := base
	return func() []uint32 {
		ids := make([]uint32, width)
		for k := range ids {
			ids[k] = next + uint32(k)*7919
		}
		next++
		return ids
	}
}

// sharingLastRowBucket returns n distinct rows of the given width whose
// hashes all fall in the last bucket of a table of the given size — and
// so of every smaller table — and, when oneTag is set, all set the same
// tag bit, the last.
func sharingLastRowBucket(n, width, tableSize int, oneTag bool) [][]uint32 {
	mask := uint64(tableSize - 1)
	var rows [][]uint32
	for i := uint32(0); len(rows) < n; i++ {
		ids := make([]uint32, width)
		for k := range ids {
			ids[k] = i ^ uint32(k)<<20
		}
		if h := HashIDs(ids); h&mask == mask && (!oneTag || h>>59 == 31) {
			rows = append(rows, ids)
		}
	}
	return rows
}

// TestRowSetAgainstModel runs RowSet through every growth boundary,
// reserve ahead of and between inserts, random interleavings of
// Insert and Find over small and large domains, a thousand rows in one
// bucket, and clones growing apart, at widths 0 through 4.
func TestRowSetAgainstModel(t *testing.T) {
	boundary := map[int]bool{0: true, 1: true, 3: true, 4: true, 5: true}
	for k := 3; k <= 14; k++ {
		boundary[1<<k-1], boundary[1<<k], boundary[1<<k+1] = true, true, true
	}
	for width := 0; width <= 4; width++ {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(30 + width)))
			if width == 0 {
				// {} and {()}: the empty row is the only row there is.
				c := newCheckedRows(t, 0)
				c.find(nil)
				c.findBatch([][]uint32{{}, {}})
				c.sweep()
				for i := 0; i < 3; i++ {
					c.insert([]uint32{})
					c.find(nil)
					c.findBatch([][]uint32{{}, {}, {}})
					c.sweep()
				}
				c.insertBatch([][]uint32{{}, {}, {}})
				c.sweep()
				c = newCheckedRows(t, 0)
				c.insertBatch(nil)
				c.insertBatch([][]uint32{{}, {}})
				c.sweep()
				r := NewRelation(0)
				if r.Contains(Tuple{}) || !r.Add(Tuple{}) || r.Add(Tuple{}) || !r.Contains(Tuple{}) || r.Len() != 1 {
					t.Fatalf("the arity-0 relation is not {} then {()}: Len %d", r.Len())
				}
				return
			}

			t.Run("growth boundaries", func(t *testing.T) {
				c := newCheckedRows(t, width)
				fresh := freshRows(width, 1)
				for n := 0; n <= 1<<14+1; n++ {
					if boundary[n] {
						c.sweep()
					}
					c.insert(fresh())
					if n%5 == 0 {
						c.insert(c.rows[rng.Intn(len(c.rows))]) // a duplicate
						c.find(c.randomRow(rng, 1<<20))
					}
				}
				c.sweep()
			})

			t.Run("reserve", func(t *testing.T) {
				c := newCheckedRows(t, width)
				fresh := freshRows(width, 1)
				c.reserve(1000, fresh) // ahead of any insert
				c.sweep()
				for i := 0; i < 37; i++ {
					c.insert(fresh())
				}
				c.reserve(0, fresh)
				c.reserve(5000, fresh) // mid-load, across several doublings
				c.sweep()
				for i := 0; i < 3000; i++ {
					c.insert(fresh()) // growth resumes past the reservation
				}
				c.sweep()
			})

			t.Run("random", func(t *testing.T) {
				for _, domain := range []int{3, 50, 1 << 20} {
					c := newCheckedRows(t, width)
					for i := 0; i < 20000; i++ {
						if rng.Intn(2) == 0 {
							c.insert(c.randomRow(rng, domain))
						} else {
							c.find(c.randomRow(rng, domain))
						}
					}
					c.sweep()
				}
			})

			t.Run("batches", func(t *testing.T) {
				// Batches of every size around the chunk boundary, each
				// drawn from fresh rows, rows held before it and rows it
				// already holds, so duplicates fall inside one batch and
				// across batches; the index doubles partway through many of
				// them.
				c := newCheckedRows(t, width)
				fresh := freshRows(width, 1)
				rechained := 0
				for _, n := range []int{1, 2, 3, 7, 40, 100, BatchCap - 1, BatchCap, BatchCap + 1, 2*BatchCap + 5, 3000} {
					rows := make([][]uint32, n)
					for i := range rows {
						switch {
						case i > 0 && rng.Intn(4) == 0:
							rows[i] = rows[rng.Intn(i)] // a duplicate inside the batch
						case len(c.rows) > 0 && rng.Intn(4) == 0:
							rows[i] = c.rows[rng.Intn(len(c.rows))]
						default:
							rows[i] = fresh()
						}
					}
					buckets := len(c.s.heads)
					c.insertBatch(rows)
					if len(c.s.heads) != buckets {
						rechained++
					}
					c.sweep()
				}
				if rechained < 5 {
					t.Fatalf("only %d batches re-chained the index", rechained)
				}
			})

			t.Run("find batches", func(t *testing.T) {
				// Probe batches of every size around the chunk boundary,
				// half held rows and half never held, on an empty set
				// (no index yet), on a set of 2 000 rows and on a clone
				// of it that has grown apart.
				for _, n := range []int{0, 1, 7, BatchCap - 1, BatchCap, BatchCap + 1, 3000} {
					c := newCheckedRows(t, width)
					miss := freshRows(width, 1<<26)
					c.findBatch(c.probeRows(rng, n, miss))
					fresh := freshRows(width, 1)
					for range 2000 {
						c.insert(fresh())
					}
					c.findBatch(c.probeRows(rng, n, miss))
					d := c.clone()
					for range 1000 {
						d.insert(miss())
					}
					c.findBatch(d.probeRows(rng, n, fresh))
					d.findBatch(d.probeRows(rng, n, fresh))
				}
			})

			t.Run("batch shapes", func(t *testing.T) {
				// Batches aimed at link and its undo: a duplicate first, in
				// the middle or last, of a held row, of a row of its own
				// chunk or of the chunk before; a chunk that ends where the
				// index re-chains or one row past it; one that fills a
				// lowered maxRows or runs past it. A batch without a
				// duplicate follows each case.
				fresh := freshRows(width, 1)
				run := func(n int) [][]uint32 {
					rows := make([][]uint32, n)
					for i := range rows {
						rows[i] = fresh()
					}
					return rows
				}
				for _, sh := range []struct {
					name       string
					held, room int // rows inserted one at a time first, then room reserved for more
					limit      int // maxRows when not 0
					batches    func(held [][]uint32) [][][]uint32
				}{
					{name: "duplicate first", held: 300, room: BatchCap, batches: func(h [][]uint32) [][][]uint32 {
						b := run(100)
						b[0] = h[7]
						return [][][]uint32{b}
					}},
					{name: "duplicate in the middle", held: 300, room: BatchCap, batches: func(h [][]uint32) [][][]uint32 {
						b := run(100)
						b[50], b[70] = h[299], b[60]
						return [][][]uint32{b}
					}},
					{name: "duplicate last", held: 300, room: BatchCap, batches: func(h [][]uint32) [][][]uint32 {
						b := run(100)
						b[99] = h[0]
						return [][][]uint32{b}
					}},
					{name: "duplicate of the chunk before", held: 300, room: 4 * BatchCap, batches: func(h [][]uint32) [][][]uint32 {
						b, c := run(2*BatchCap), run(100)
						b[BatchCap+1], b[BatchCap+500], c[0] = b[BatchCap-1], b[3], b[2*BatchCap-1]
						return [][][]uint32{b, c}
					}},
					{name: "ends where the index re-chains", held: 974, batches: func(h [][]uint32) [][][]uint32 {
						return [][][]uint32{run(50), {h[9]}}
					}},
					{name: "crosses the growth threshold", held: 975, batches: func(h [][]uint32) [][][]uint32 {
						b := run(100)
						b[20], b[80] = b[10], h[5]
						return [][][]uint32{b}
					}},
					{name: "fills a lowered maxRows", held: 300, room: BatchCap, limit: 400, batches: func(h [][]uint32) [][][]uint32 {
						return [][][]uint32{run(100), {h[5], h[6]}, {fresh()}}
					}},
					{name: "runs past a lowered maxRows", held: 300, room: BatchCap, limit: 399, batches: func(h [][]uint32) [][][]uint32 {
						return [][][]uint32{run(100), {h[2]}, {h[3], fresh(), h[4]}}
					}},
				} {
					t.Run(sh.name, func(t *testing.T) {
						if sh.limit > 0 {
							defer func(was int) { maxRows = was }(maxRows)
							maxRows = sh.limit
						}
						c := newCheckedRows(t, width)
						for range sh.held {
							c.insert(fresh())
						}
						c.s.reserve(sh.room)
						c.one.reserve(sh.room)
						for _, b := range sh.batches(c.rows) {
							c.insertBatch(b)
							c.sweep()
						}
						if sh.limit == 0 {
							c.insertBatch(run(40))
							c.sweep()
						}
					})
				}
			})

			t.Run("one bucket", func(t *testing.T) {
				// 1000 rows sharing the last bucket of the 1024 buckets they
				// end up in: one chain holds them all, and every re-chain
				// keeps it whole.
				rows := sharingLastRowBucket(1000, width, 1024, false)
				rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
				c := newCheckedRows(t, width)
				for i, ids := range rows {
					c.insert(ids)
					c.find(rows[rng.Intn(len(rows))])
					if boundary[i] {
						c.sweep()
					}
				}
				c.sweep()
				if len(c.s.heads) != 1024 {
					t.Fatalf("%d buckets, the rows were picked for 1024", len(c.s.heads))
				}
				chain := 0
				for p := int32(uint32(c.s.heads[1023])); p != 0; p = c.s.next[p-1] {
					chain++
				}
				if chain != len(rows) {
					t.Fatalf("the last bucket chains %d rows, want all %d", chain, len(rows))
				}
			})

			t.Run("one tag", func(t *testing.T) {
				// 300 rows sharing the last bucket of the 512 buckets they
				// end up in and one tag bit, so no probe is rejected by its
				// tag: every one compares rows, and a row whose tag matches
				// but whose columns differ must be a miss for Find,
				// FindBatch, Insert and insertBatch alike. Half go in
				// first, a batch at a time, the second batch linked into
				// reserved room; the other half are probed one row and a
				// batch at a time, then go in through a linked chunk that
				// a held row in its middle undoes, and then one at a time.
				rows := sharingLastRowBucket(300, width, 512, true)
				rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
				held, rest := rows[:150], rows[150:]
				c := newCheckedRows(t, width)
				c.insertBatch(held[:50])
				c.s.reserve(250)
				c.one.reserve(250)
				c.insertBatch(held[50:])
				c.sweep()
				for _, ids := range rest {
					c.find(ids)
				}
				c.findBatch(rest)
				c.findBatch(rows)
				b := slices.Clone(rest[:100])
				b[60] = held[10]
				c.insertBatch(b)
				c.sweep()
				for _, ids := range rows {
					c.insert(ids)
				}
				c.sweep()
				if len(c.s.heads) != 512 || c.s.heads[511]>>32 != 1<<31 {
					t.Fatalf("%d buckets, the last tagged %#x; the rows were picked for 512 and tag bit 31", len(c.s.heads), c.s.heads[511]>>32)
				}
			})

			// growApart adds different fresh rows to c and d, enough to
			// re-chain each, and checks that neither side finds the
			// other's. The sweeps before the re-chain catch storage the
			// two sides still share: a re-chain rebuilds every link and
			// would hide it.
			growApart := func(c, d *checkedRows) {
				toC, toD := freshRows(width, 1<<24), freshRows(width, 1<<25)
				var onC, onD [][]uint32
				for i := 0; i < 5000; i++ {
					onC, onD = append(onC, toC()), append(onD, toD())
					c.insert(onC[i])
					d.insert(onD[i])
					if i == 100 {
						c.sweep()
						d.sweep()
					}
				}
				c.sweep()
				d.sweep()
				for i := range onC {
					c.find(onD[i])
					d.find(onC[i])
				}
			}

			t.Run("clones grow apart", func(t *testing.T) {
				c := newCheckedRows(t, width)
				fresh := freshRows(width, 1)
				for i := 0; i < 3000; i++ {
					c.insert(fresh())
				}
				d := c.clone()
				c.sweep()
				d.sweep()
				growApart(c, d)
			})

			t.Run("batches on clones", func(t *testing.T) {
				// A clone shares nothing a batch insert writes: batches
				// on both, after the source's own batches, grow them
				// apart.
				c := newCheckedRows(t, width)
				fresh := freshRows(width, 1)
				batch := func(src func() []uint32, n int) [][]uint32 {
					rows := make([][]uint32, n)
					for i := range rows {
						rows[i] = src()
					}
					return rows
				}
				c.insertBatch(batch(fresh, 3000))
				d := c.clone()
				toC, toD := freshRows(width, 1<<24), freshRows(width, 1<<25)
				onC, onD := batch(toC, 5000), batch(toD, 5000)
				c.insertBatch(onC)
				d.insertBatch(onD)
				c.sweep()
				d.sweep()
				for i := range onC {
					c.find(onD[i])
					d.find(onC[i])
				}
			})

			t.Run("Relation.Clone", func(t *testing.T) {
				// The same over a relation's own index and its Clone's.
				r := NewRelation(width)
				c := &checkedRows{t: t, s: &r.rows, one: NewRowSet(width), pos: map[string]int{}}
				fresh := freshRows(width, 1)
				for i := 0; i < 3000; i++ {
					ids := fresh()
					if _, fresh := r.rows.Insert(ids); !fresh {
						t.Fatalf("fresh row %v rejected", ids)
					}
					c.one.Insert(ids)
					c.rows = append(c.rows, ids)
					c.pos[rowKey(ids)] = i
				}
				d := c.clone()
				d.s = &r.Clone().rows // the model's copy, over the Clone's index
				c.sweep()
				d.sweep()
				growApart(c, d)
			})
		})
	}
}

// FuzzRowSet reads its input as a width byte and then a stream of
// operations — a byte that picks the operation and the set it goes to,
// then what the operation reads: one byte per component of a row, for
// a batch insert a count byte and that many rows, and for a batch probe
// a count byte and that many rows, each a selector byte and, unless the
// selector picks a row the set holds, the row's bytes — and runs them
// against the model. Components are single bytes, so rows collide
// often, inside one batch too, and a batch of up to 63 rows re-chains
// a small set partway through; a batch probe mixes held rows with rows
// that may or may not be held, on any set, an empty one included. The
// clone operation adds a set, and later operations go to any set made
// so far, so clones and their sources keep growing apart, one row or
// one batch at a time. The width byte's top bit lowers maxRows to
// between 1 and 26 rows. Every sweep holds each bucket word's tag bits
// to its chain; the seed batch-undo-one-tag's rows share a bucket and a
// tag bit, so its probes and linked chunks compare every row, and one
// chunk is undone at a held row.
func FuzzRowSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := int(data[0]&0x7f) % 5
		if data[0]&0x80 != 0 {
			defer func(was int) { maxRows = was }(maxRows)
			maxRows = 1 + int(data[0]&0x7f)/5
		}
		data = data[1:]
		row := func() []uint32 {
			ids := make([]uint32, width)
			for k := range ids {
				if len(data) > 0 {
					ids[k] = uint32(data[0])
					data = data[1:]
				}
			}
			return ids
		}
		sets := []*checkedRows{newCheckedRows(t, width)}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			c := sets[int(op>>4)%len(sets)]
			switch op % 7 {
			case 0, 1:
				c.insert(row())
			case 2:
				c.find(row())
			case 3:
				// Reserve room for a few rows the set has never seen: byte
				// components stay below 256, so these cannot collide.
				c.reserve(int(op>>4)%6, freshRows(width, 1<<16+uint32(len(c.rows))*8))
			case 4:
				if len(sets) < 4 {
					sets = append(sets, c.clone())
				}
			case 5:
				n := 0
				if len(data) > 0 {
					n = int(data[0] % 64)
					data = data[1:]
				}
				rows := make([][]uint32, n)
				for i := range rows {
					rows[i] = row()
				}
				c.insertBatch(rows)
			case 6:
				n := 0
				if len(data) > 0 {
					n = int(data[0] % 64)
					data = data[1:]
				}
				rows := make([][]uint32, n)
				for i := range rows {
					sel := byte(0)
					if len(data) > 0 {
						sel = data[0]
						data = data[1:]
					}
					if sel&1 != 0 && len(c.rows) > 0 {
						rows[i] = c.rows[int(sel>>1)%len(c.rows)]
					} else {
						rows[i] = row()
					}
				}
				c.findBatch(rows)
			}
		}
		for _, c := range sets {
			c.sweep()
		}
	})
}

// TestRowSetLimit: a set at its row limit still finds and re-inserts
// what it holds and refuses the next new row, unchanged. The limit is
// lowered to 3 rows.
func TestRowSetLimit(t *testing.T) {
	defer func(was int) { maxRows = was }(maxRows)
	maxRows = 3
	s := NewRowSet(2)
	for i := range uint32(3) {
		s.Insert([]uint32{i, i})
	}
	if pos, fresh := s.Insert([]uint32{1, 1}); pos != 1 || fresh {
		t.Fatalf("Insert of a held row at the limit: pos %d fresh %v", pos, fresh)
	}
	if got := fullPanic(t, func() { s.Insert([]uint32{3, 3}) }); got != errRowSetFull {
		t.Errorf("Insert past the limit: %q", got)
	}
	if s.Len() != 3 || s.Find([]uint32{3, 3}) != -1 || s.Find([]uint32{2, 2}) != 2 {
		t.Errorf("a refused row changed the set: Len %d", s.Len())
	}

	// A batch that reaches the limit partway through: the rows before
	// the one that finds the set full go in, duplicates of held rows
	// included, and nothing after it does.
	s = NewRowSet(2)
	s.Insert([]uint32{0, 0})
	batch := [][]uint32{{0, 5, 0, 6, 6, 7, 0}, {0, 5, 0, 6, 6, 7, 0}}
	if got := fullPanic(t, func() { s.insertBatch(batch, len(batch[0]), nil) }); got != errRowSetFull {
		t.Errorf("insertBatch past the limit: %q", got)
	}
	cols := s.Cols()
	if s.Len() != 3 || !slices.Equal(cols[0], []uint32{0, 5, 6}) || !slices.Equal(cols[1], []uint32{0, 5, 6}) {
		t.Errorf("after a batch past the limit the set holds %v", cols)
	}
	if s.Find([]uint32{7, 7}) != -1 || s.Find([]uint32{6, 6}) != 2 || len(s.next) != 3 {
		t.Errorf("the row past the limit changed the set: Len %d, %d chain links", s.Len(), len(s.next))
	}
}

// plannedDivisionRows returns the ID columns of a relation shaped like
// the R of the div-planned benchmark workload: 133 000 binary rows,
// 10 000 groups of about 13 elements drawn from a few dozen values, in
// group order, with IDs in first-occurrence order as the text loader
// assigns them.
func plannedDivisionRows() [][]uint32 {
	const groups, rows = 10000, 133000
	rng := rand.New(rand.NewSource(45))
	ids := map[int64]uint32{}
	id := func(v int64) uint32 {
		x, ok := ids[v]
		if !ok {
			x = uint32(len(ids))
			ids[v] = x
		}
		return x
	}
	cols := [][]uint32{make([]uint32, 0, rows), make([]uint32, 0, rows)}
	for g := 0; len(cols[0]) < rows; g = (g + 1) % groups {
		for _, e := range rng.Perm(68)[:13+g%2] {
			if len(cols[0]) == rows {
				break
			}
			cols[0] = append(cols[0], id(int64(g)))
			cols[1] = append(cols[1], id(1_000_000+int64(e)))
		}
	}
	return cols
}

// dupEvery returns the rows of cols with every k-th row, the first
// included when k is 1, followed at once by a copy of itself.
func dupEvery(cols [][]uint32, k int) [][]uint32 {
	out := make([][]uint32, len(cols))
	for i := range cols[0] {
		for range 1 + (i+1)/k - i/k {
			for c, col := range cols {
				out[c] = append(out[c], col[i])
			}
		}
	}
	return out
}

// BenchmarkRowSetInsert inserts the rows of plannedDivisionRows into a
// set that is pre-sized for them or grows from empty, one row at a time
// through Insert and a batch of BatchCap rows at a time through
// insertBatch, the way the text loader and Relation.AddBatch do. The
// dups cases feed the pre-sized batch path the same rows with every
// row, or every 16th, repeated right after itself.
func BenchmarkRowSetInsert(b *testing.B) {
	cols := plannedDivisionRows()
	n := len(cols[0])
	fill := func(sized bool, n int) *RowSet {
		s := NewRowSet(2)
		if sized {
			s.reserve(n)
		}
		return s
	}
	batch := func(cols [][]uint32, sized bool) func(*testing.B) {
		return func(b *testing.B) {
			n := len(cols[0])
			chunk := make([][]uint32, 2)
			for range b.N {
				s := fill(sized, n)
				for lo := 0; lo < n; lo += BatchCap {
					hi := min(n, lo+BatchCap)
					chunk[0], chunk[1] = cols[0][lo:hi], cols[1][lo:hi]
					s.insertBatch(chunk, hi-lo, nil)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		}
	}
	for _, sized := range []bool{true, false} {
		name := map[bool]string{true: "presized", false: "growing"}[sized]
		b.Run("row/"+name, func(b *testing.B) {
			ids := make([]uint32, 2)
			for range b.N {
				s := fill(sized, n)
				for i := range n {
					ids[0], ids[1] = cols[0][i], cols[1][i]
					s.Insert(ids)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
		b.Run("batch/"+name, batch(cols, sized))
	}
	b.Run("batch/dups", batch(dupEvery(cols, 1), true))
	b.Run("batch/dups16", batch(dupEvery(cols, 16), true))
}

// BenchmarkRowSetFind probes a set of binary rows with 65 536 rows,
// one row at a time through Find and a batch of BatchCap rows at a time
// through FindBatch, the way the executor's difference and semijoins
// probe. In the row and batch cases half the probes are held rows; in
// the row-miss and batch-miss cases none is, as in div-asis' difference,
// where 98 % of the probes miss and the tag bits reject most misses in
// a non-empty bucket without reading a row. The small set's 16 000
// rows fit in L2 with their index; the large set's 1 000 000 do not, so
// there every probe misses the cache and FindBatch overlaps the misses.
func BenchmarkRowSetFind(b *testing.B) {
	const probes = 1 << 16
	for _, size := range []struct {
		name string
		rows int
	}{{"l2", 16000}, {"memory", 1000000}} {
		rng := rand.New(rand.NewSource(int64(size.rows)))
		s := NewRowSet(2)
		s.reserve(size.rows)
		for i := range size.rows {
			s.Insert([]uint32{uint32(i / 13), uint32(rng.Intn(1 << 20))})
		}
		held := s.Cols()
		half := [][]uint32{make([]uint32, probes), make([]uint32, probes)}
		for i := range probes {
			if i%2 == 0 {
				p := rng.Intn(size.rows)
				half[0][i], half[1][i] = held[0][p], held[1][p]
			} else {
				half[0][i], half[1][i] = uint32(rng.Intn(size.rows/13)), uint32(1<<20+rng.Intn(1<<20))
			}
		}
		miss := [][]uint32{make([]uint32, probes), make([]uint32, probes)}
		for i := range probes {
			miss[0][i], miss[1][i] = uint32(rng.Intn(size.rows/13)), uint32(1<<20+rng.Intn(1<<20))
		}
		for _, mix := range []struct {
			name  string
			probe [][]uint32
			want  int
		}{{"", half, probes / 2}, {"-miss", miss, 0}} {
			probe, found := mix.probe, -1 // -1 until a case below runs
			b.Run("row"+mix.name+"/"+size.name, func(b *testing.B) {
				ids := make([]uint32, 2)
				for range b.N {
					found = 0
					for i := range probes {
						ids[0], ids[1] = probe[0][i], probe[1][i]
						if s.Find(ids) >= 0 {
							found++
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/row")
			})
			b.Run("batch"+mix.name+"/"+size.name, func(b *testing.B) {
				hit := make([]bool, BatchCap)
				chunk := make([][]uint32, 2)
				for range b.N {
					found = 0
					for lo := 0; lo < probes; lo += BatchCap {
						chunk[0], chunk[1] = probe[0][lo:lo+BatchCap], probe[1][lo:lo+BatchCap]
						s.FindBatch(chunk, BatchCap, hit)
						for _, h := range hit {
							if h {
								found++
							}
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/row")
			})
			if found >= 0 && found != mix.want {
				b.Fatalf("batch%s/%s: %d probes found, want %d", mix.name, size.name, found, mix.want)
			}
		}
	}
}
