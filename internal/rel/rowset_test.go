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
// oracles that every executor test uses.
type checkedRows struct {
	t    testing.TB
	s    *RowSet
	rows [][]uint32
	pos  map[string]int
}

func newCheckedRows(t testing.TB, width int) *checkedRows {
	return &checkedRows{t: t, s: NewRowSet(width), pos: map[string]int{}}
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
	got, fresh := c.s.Insert(ids)
	want, seen := c.pos[rowKey(ids)]
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

// reserve reserves room for n more rows and checks the promise: n
// fresh inserts afterwards neither re-chain the index nor move a
// column. It leaves those n rows inserted.
func (c *checkedRows) reserve(n int, fresh func() []uint32) {
	c.t.Helper()
	c.s.reserve(n)
	buckets := len(c.s.heads)
	if n > 0 && buckets < 2*(len(c.rows)+n) {
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
// a power of two of at least two buckets per row, every row on exactly
// one chain, the one of its hash's bucket, chains newest first.
func (c *checkedRows) sweep() {
	c.t.Helper()
	n := len(c.rows)
	if c.s.Len() != n {
		c.t.Fatalf("Len = %d, model holds %d", c.s.Len(), n)
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
	if b&(b-1) != 0 || b < minBuckets || b < 2*n {
		c.t.Fatalf("%d buckets for %d rows: want a power of two, at least %d and twice the rows", b, n, minBuckets)
	}
	on := 0
	for bucket, head := range c.s.heads {
		prev := int32(n + 1)
		for p := head; p != 0; p = c.s.next[p-1] {
			if p >= prev {
				c.t.Fatalf("bucket %d chains row %d after row %d: not newest first", bucket, p-1, prev-1)
			}
			if HashIDs(c.rows[p-1])&uint64(b-1) != uint64(bucket) {
				c.t.Fatalf("row %d chained in bucket %d, not its hash's", p-1, bucket)
			}
			prev = p
			on++
		}
	}
	if on != n {
		c.t.Fatalf("%d rows on the chains, %d held", on, n)
	}
}

func (c *checkedRows) clone() *checkedRows {
	s := c.s.clone()
	rows := make([][]uint32, len(c.rows))
	for i, r := range c.rows {
		rows[i] = slices.Clone(r)
	}
	return &checkedRows{t: c.t, s: &s, rows: rows, pos: maps.Clone(c.pos)}
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
// so of every smaller table.
func sharingLastRowBucket(n, width, tableSize int) [][]uint32 {
	mask := uint64(tableSize - 1)
	var rows [][]uint32
	for i := uint32(0); len(rows) < n; i++ {
		ids := make([]uint32, width)
		for k := range ids {
			ids[k] = i ^ uint32(k)<<20
		}
		if HashIDs(ids)&mask == mask {
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
				c.sweep()
				for i := 0; i < 3; i++ {
					c.insert([]uint32{})
					c.find(nil)
					c.sweep()
				}
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

			t.Run("one bucket", func(t *testing.T) {
				// 1000 rows sharing the last bucket of the 2048 buckets they
				// end up in: one chain holds them all, and every re-chain
				// keeps it whole.
				rows := sharingLastRowBucket(1000, width, 2048)
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
				if len(c.s.heads) != 2048 {
					t.Fatalf("%d buckets, the rows were picked for 2048", len(c.s.heads))
				}
				chain := 0
				for p := c.s.heads[2047]; p != 0; p = c.s.next[p-1] {
					chain++
				}
				if chain != len(rows) {
					t.Fatalf("the last bucket chains %d rows, want all %d", chain, len(rows))
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

			t.Run("Relation.Clone", func(t *testing.T) {
				// The same over a relation's own index and its Clone's.
				r := NewRelation(width)
				c := &checkedRows{t: t, s: &r.rows, pos: map[string]int{}}
				fresh := freshRows(width, 1)
				for i := 0; i < 3000; i++ {
					ids := fresh()
					if !r.addIDs(ids) {
						t.Fatalf("fresh row %v rejected", ids)
					}
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
// then one byte per component of its row — and runs them against the
// model. Components are single bytes, so rows collide often. The clone
// operation adds a set, and later operations go to any set made so
// far, so clones and their sources keep growing apart.
func FuzzRowSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := int(data[0] % 5)
		data = data[1:]
		sets := []*checkedRows{newCheckedRows(t, width)}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			ids := make([]uint32, width)
			for k := range ids {
				if len(data) > 0 {
					ids[k] = uint32(data[0])
					data = data[1:]
				}
			}
			c := sets[int(op>>4)%len(sets)]
			switch op % 5 {
			case 0, 1:
				c.insert(ids)
			case 2:
				c.find(ids)
			case 3:
				// Reserve room for a few rows the set has never seen: byte
				// components stay below 256, so these cannot collide.
				c.reserve(int(op>>4)%6, freshRows(width, 1<<16+uint32(len(c.rows))*8))
			case 4:
				if len(sets) < 4 {
					sets = append(sets, c.clone())
				}
			}
		}
		for _, c := range sets {
			c.sweep()
		}
	})
}
