package rel

import (
	"fmt"
	"slices"
)

// RowSet is the module's one hash index over rows of IDs: a set of
// fixed-width rows kept in insertion order as flat columns
// (struct-of-arrays, 4 bytes per ID), deduplicated through a chained
// hash table. A relation's dedup index is one, and so are the
// executor's sets — ra.IDSet behind the union and difference sinks and
// the dedup filter, the key table of the hash join and the semijoins,
// γ's groups and counted values — so how rows are hashed and found is
// decided here and nowhere else.
//
// heads is a power-of-two bucket array (bucket = HashIDs & mask)
// holding 1 + the position of the newest row in the bucket, and next
// chains each row to the previous one in its bucket. There are always
// at least two buckets per row, so chains stay short: the array is
// doubled, and every chain rebuilt from the columns, when the row count
// reaches half the bucket count, and reserve sizes it ahead of a bulk
// load. Rebuilding happens only inside Insert and reserve, so Find never
// writes and any number of readers may probe a set nobody inserts into.
//
// Width 0 is allowed: such a set holds at most the empty row, which is
// how the arity-0 relations {} and {()} are stored.
type RowSet struct {
	n     int        // rows held: a width-0 set has no column to measure
	cols  [][]uint32 // one flat column per row component
	heads []int32    // per bucket: 1 + newest position in its chain (0 = empty); nil while empty
	next  []int32    // per row: 1 + next position in its hash chain (0 ends)
}

// NewRowSet returns an empty set of rows of the given width.
func NewRowSet(width int) *RowSet {
	if width < 0 {
		panic("rel: negative row width")
	}
	return &RowSet{cols: make([][]uint32, width)}
}

// Len returns the number of rows held.
func (s *RowSet) Len() int { return s.n }

// Cols returns the rows as columns, in insertion order: column k holds
// component k of every row. The slices are read-only views of live
// storage, valid until the next Insert.
func (s *RowSet) Cols() [][]uint32 { return s.cols }

// minBuckets is the smallest index allocated.
const minBuckets = 8

// Insert adds the row ids unless it is already held and returns its
// position, with fresh reporting whether it was added. ids must have
// the set's width; it is read, not retained.
func (s *RowSet) Insert(ids []uint32) (pos int, fresh bool) {
	if len(ids) != len(s.cols) {
		s.badWidth(ids)
	}
	h := HashIDs(ids)
	for p := s.chain(h); p != 0; p = s.next[p-1] {
		if s.rowEqual(int(p-1), ids) {
			return int(p - 1), false
		}
	}
	if 2*s.n >= len(s.heads) {
		s.rechain(2 * len(s.heads))
	}
	b := h & uint64(len(s.heads)-1)
	s.next = append(s.next, s.heads[b])
	s.n++
	s.heads[b] = int32(s.n)
	for k := range s.cols {
		s.cols[k] = append(s.cols[k], ids[k])
	}
	return s.n - 1, true
}

// Find returns the position of the row ids, or -1 when the set does
// not hold it. ids must have the set's width. Find only reads.
func (s *RowSet) Find(ids []uint32) int {
	if len(ids) != len(s.cols) {
		s.badWidth(ids)
	}
	for p := s.chain(HashIDs(ids)); p != 0; p = s.next[p-1] {
		if s.rowEqual(int(p-1), ids) {
			return int(p - 1)
		}
	}
	return -1
}

// badWidth panics on a row of the wrong width, which would otherwise
// be compared on a prefix and could silently match.
func (s *RowSet) badWidth(ids []uint32) {
	panic(fmt.Sprintf("rel: row of width %d used with a set of width %d", len(ids), len(s.cols)))
}

// chain returns 1 + the position of the newest row whose hash falls in
// h's bucket, 0 when the bucket (or the whole index) is empty.
func (s *RowSet) chain(h uint64) int32 {
	if len(s.heads) == 0 {
		return 0
	}
	return s.heads[h&uint64(len(s.heads)-1)]
}

// rowEqual reports whether the row at position pos is exactly ids.
func (s *RowSet) rowEqual(pos int, ids []uint32) bool {
	for k, id := range ids {
		if s.cols[k][pos] != id {
			return false
		}
	}
	return true
}

// reserve grows the columns and the index to hold n more rows without
// reallocation or re-chaining. Contents and order are unchanged.
func (s *RowSet) reserve(n int) {
	if n <= 0 {
		return
	}
	want := s.n + n
	for k := range s.cols {
		if cap(s.cols[k]) < want {
			c := make([]uint32, len(s.cols[k]), want)
			copy(c, s.cols[k])
			s.cols[k] = c
		}
	}
	if cap(s.next) < want {
		nx := make([]int32, len(s.next), want)
		copy(nx, s.next)
		s.next = nx
	}
	if len(s.heads) < 2*want {
		s.rechain(2 * want)
	}
}

// rechain replaces the index with one of at least n buckets (rounded up
// to a power of two) and rebuilds every chain from the columns.
// Positions are re-linked in insertion order, so a chain lists its rows
// newest first exactly as incremental inserts leave it.
func (s *RowSet) rechain(n int) {
	size := minBuckets
	for size < n {
		size <<= 1
	}
	s.heads = make([]int32, size)
	mask := uint64(size - 1)
	for pos := 0; pos < s.n; pos++ {
		h := uint64(hashOffset)
		for _, col := range s.cols {
			h = (h ^ uint64(col[pos])) * hashPrime
		}
		b := hashFinish(h) & mask
		s.next[pos] = s.heads[b]
		s.heads[b] = int32(pos) + 1
	}
}

// clone returns a copy of the set sharing no storage with it: the same
// rows, the same chains, the same bucket count — nothing re-hashed.
func (s *RowSet) clone() RowSet {
	c := RowSet{n: s.n, cols: make([][]uint32, len(s.cols)), heads: slices.Clone(s.heads), next: slices.Clone(s.next)}
	for k, col := range s.cols {
		c.cols[k] = slices.Clone(col)
	}
	return c
}
