package rel

import (
	"fmt"
	"math"
	"slices"
)

// RowSet is the module's one hash index over rows of IDs: a set of
// fixed-width rows kept in insertion order as flat columns
// (struct-of-arrays, 4 bytes per ID), deduplicated through a chained
// hash table. A relation's dedup index is one, and so are the
// executor's sets — the idSet behind the union and difference sinks and
// the dedup filter, the key table of the hash join and the semijoins,
// γ's groups and counted values — so how rows are hashed and found is
// decided here and nowhere else.
//
// heads is a power-of-two array of bucket words (bucket = HashIDs &
// mask), and next chains each row to the previous one in its bucket. A
// bucket word's low half is 1 + the position of the newest row in the
// bucket (0 when it is empty). Its high half summarizes the chain: each
// row in it sets bit h>>59 of its hash h, the top five bits, which the
// bucket number never reaches. So a probe whose bit is clear in its
// bucket's word is a miss without reading a row, and a probe that
// misses in a non-empty bucket compares rows only on about one chain in
// 32 (SwissTable's and F14's tags, on chained buckets). Every writer of
// a word keeps the summary exact, the OR of its chain's bits: add and
// link OR the new row's bit in, link's undo restores whole words, and
// rechain, which Relation.Sort re-chains through, recomputes them.
// There is always at least one bucket per row, so chains stay short:
// the array is doubled, and every chain rebuilt from the columns, when
// the row count reaches the bucket count, and reserve sizes it ahead of
// a bulk load; at 8 B a word, heads costs what 4 B heads at two
// buckets per row would. Only the insert paths write — Insert,
// insertBatch and reserve, the only places the index is rebuilt — so
// Find and FindBatch never write and any number of readers may probe a
// set nobody inserts into.
//
// The bulk writers — the text loader and Relation.AddBatch, and through
// it the shards, the sharded merges and the query result — insert a
// batch of rows at a time through insertBatch, which links rows at
// their chains' heads first and checks them for duplicates after, so
// that no row waits on the cache misses of the row before it. The bulk
// reader is FindBatch, the probe of the executor's difference and
// semijoins: it hashes a batch, then loads every bucket word, then
// walks the chains whose tag bits hold the row's bit. Find stays the one-row probe, for callers that need
// a position per row.
//
// Width 0 is allowed: such a set holds at most the empty row, which is
// how the arity-0 relations {} and {()} are stored.
type RowSet struct {
	n     int        // rows held: a width-0 set has no column to measure
	cols  [][]uint32 // one flat column per row component
	heads []uint64   // per bucket: the chain's tag bits << 32 | 1 + its newest position (0 = empty); nil while empty
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
// storage, valid until the next insert.
func (s *RowSet) Cols() [][]uint32 { return s.cols }

// maxRows is the most rows a set may hold: next and a bucket word's low
// half keep 1 + a position, read as an int32. Insert and insertBatch
// check it once per new row, never on a probe; a test lowers it.
var maxRows = math.MaxInt32

// minBuckets is the smallest index allocated.
const minBuckets = 8

// pushed returns the bucket word w with the row at position p, whose
// hash is h, made the newest of its chain: the low half set to 1 + p,
// and the row's tag bit, bit h>>59 of the high half, ORed in.
func pushed(w, h uint64, p int) uint64 { return w>>32<<32 | 1<<32<<(h>>59) | uint64(p+1) }

// probe returns where the chain walk for a row whose hash is h starts,
// given its bucket's word w: 1 + the newest position of w's chain, or 0
// when the chain is empty or its tag bits lack h's bit, so that no row
// on it can equal the probed one. It does not branch.
func probe(w, h uint64) int32 { return int32(w & -(w >> 32 >> (h >> 59) & 1)) }

// Insert adds the row ids unless it is already held and returns its
// position, with fresh reporting whether it was added. ids must have
// the set's width; it is read, not retained.
func (s *RowSet) Insert(ids []uint32) (pos int, fresh bool) {
	if len(ids) != len(s.cols) {
		s.badWidth(ids)
	}
	h := HashIDs(ids)
	if pos := s.find(h, ids); pos >= 0 {
		return pos, false
	}
	return s.add(h, ids), true
}

// find is the probe of Find, Insert and insertBatch: the position of
// the row ids, whose hash is h, or -1 when the set does not hold it. A
// chain whose tag bits lack h's is not walked: chain returns 0.
func (s *RowSet) find(h uint64, ids []uint32) int {
	p := s.chain(h)
	for p != 0 && !s.rowEqual(int(p-1), ids) {
		p = s.next[p-1]
	}
	return int(p) - 1
}

// add is the append of Insert and insertBatch: it appends the row ids,
// whose hash is h and which the set does not hold, and returns its
// position, re-chaining first when the set has reached its bucket
// count. It links the row at the head of its chain and ORs its tag bit
// into the bucket word.
func (s *RowSet) add(h uint64, ids []uint32) int {
	if s.n >= maxRows {
		panic(errRowSetFull)
	}
	if s.n >= len(s.heads) {
		s.rechain(2 * len(s.heads))
	}
	b := h & uint64(len(s.heads)-1)
	s.next = append(s.next, int32(uint32(s.heads[b])))
	s.heads[b] = pushed(s.heads[b], h, s.n)
	s.n++
	for k := range s.cols {
		s.cols[k] = append(s.cols[k], ids[k])
	}
	return s.n - 1
}

// insertBatch inserts n rows given as columns — row i is cols[k][i] for
// every k — in row order, exactly as n calls of Insert would: a row
// equal to an earlier one of the batch is a duplicate of it, so the
// first occurrence is the one kept, the index grows at the same rows,
// and heads, next and the columns end up as Insert leaves them. When
// fresh is not nil, fresh[i] reports whether row i was added. It
// returns the number of rows added. The columns are read, not retained.
// Rows past a full set panic as Insert does, after the rows before them
// went in.
//
// The rows go in chunks of at most BatchCap, each hashed column by
// column. A chunk that can neither re-chain the index nor reach
// maxRows, even if every row is new, goes through link. The others,
// and a linked chunk from its first duplicate on, take the one-row
// loop, which loads every row's bucket head before it walks a chain so
// that those loads overlap.
//
// The scratch is on the stack, per row of the chunk in hand: its hash,
// and its bucket's word before the row went in. link keeps those words
// as the undo log of a chunk linked before it was checked; the one-row
// loop loads them only so that its chains are in cache. So a set keeps
// nothing of a batch insert but its rows.
func (s *RowSet) insertBatch(cols [][]uint32, n int, fresh []bool) int {
	if len(cols) != len(s.cols) {
		panic(fmt.Sprintf("rel: batch of width %d inserted into a set of width %d", len(cols), len(s.cols)))
	}
	var few [4]uint32
	ids := few[:min(len(cols), len(few))]
	if len(cols) > len(few) {
		ids = make([]uint32, len(cols))
	}
	var hashes [BatchCap]uint64
	var touched [BatchCap]uint64
	added := 0
	for lo := 0; lo < n; lo += BatchCap {
		hi := min(n, lo+BatchCap)
		hs, at := hashBatch(hashes[:hi-lo], cols, lo), lo
		if s.n+len(hs) <= len(s.heads) && s.n+len(hs) <= maxRows {
			linked := s.link(cols, lo, hs, touched[:len(hs)])
			if fresh != nil {
				for i := range linked {
					fresh[lo+i] = true
				}
			}
			added += linked
			if linked == len(hs) {
				continue
			}
			hs, at = hs[linked:], lo+linked
		}
		if len(s.heads) > 0 {
			heads, mask, touched := s.heads, uint64(len(s.heads)-1), touched[:len(hs)]
			for i, h := range hs {
				touched[i] = heads[h&mask]
			}
		}
		for i, h := range hs {
			for k, col := range cols {
				ids[k] = col[at+i]
			}
			isNew := s.find(h, ids) < 0
			if isNew {
				s.add(h, ids)
				added++
			}
			if fresh != nil {
				fresh[at+i] = isNew
			}
		}
	}
	return added
}

// link appends the rows [lo, lo+len(hs)) of cols, whose hashes are hs,
// and links each at the head of its chain without a probe, ORing its
// tag bit into its bucket word and saving the whole word it replaces in
// touched, which has a row for each. Then it compares every row, in row
// order, with the older rows of its chain, the chunk's earlier rows
// included, skipping a row whose saved word lacks its tag bit. Neither
// pass's iterations wait on each other, so the CPU overlaps their cache
// misses. At the first row the set already held, it restores the words
// of that row and every later one, tag bits included, newest first,
// from touched, and truncates those rows; it returns how many rows
// stayed in. The index must take all the rows without re-chaining or
// reaching maxRows. When the columns are full, link sizes them and the
// chain links for every row the index takes before it re-chains, so
// bulk inserts grow them as the index grows.
func (s *RowSet) link(cols [][]uint32, lo int, hs []uint64, touched []uint64) int {
	base, m := s.n, len(hs)
	if cap(s.next) < base+m {
		s.reserve(len(s.heads) - base)
	}
	heads, mask := s.heads, uint64(len(s.heads)-1)
	next := s.next[:base+m]
	linked, touched := next[base:][:m], touched[:m]
	for i, h := range hs {
		b := h & mask
		w := heads[b]
		touched[i], linked[i] = w, int32(uint32(w))
		heads[b] = pushed(w, h, base+i)
	}
	for k, col := range cols {
		s.cols[k] = append(s.cols[k], col[lo:lo+m]...)
	}
	s.next, s.n = next, base+m
	for i, h := range hs {
		for p := probe(touched[i], h); p != 0; p = next[p-1] {
			if s.samePos(int(p-1), base+i) {
				for j := m - 1; j >= i; j-- {
					heads[hs[j]&mask] = touched[j]
				}
				s.n, s.next = base+i, next[:base+i]
				for k := range s.cols {
					s.cols[k] = s.cols[k][:base+i]
				}
				return i
			}
		}
	}
	return m
}

// hashBatch sets hs to HashIDs of the rows [lo, lo+len(hs)) of cols,
// computed column by column, and returns it. The first column's pass
// starts every hash and the last column's finishes it, so a row of one
// or two IDs takes one or two passes over hs.
func hashBatch(hs []uint64, cols [][]uint32, lo int) []uint64 {
	hi, last := lo+len(hs), len(cols)-1
	if last < 0 {
		for i := range hs {
			hs[i] = hashFinish(hashOffset)
		}
		return hs
	}
	for k, col := range cols {
		col = col[lo:hi]
		hs := hs[:len(col)]
		switch {
		case k == 0 && k == last:
			for i, id := range col {
				hs[i] = hashFinish((hashOffset ^ uint64(id)) * hashPrime)
			}
		case k == 0:
			for i, id := range col {
				hs[i] = (hashOffset ^ uint64(id)) * hashPrime
			}
		case k == last:
			for i, id := range col {
				hs[i] = hashFinish((hs[i] ^ uint64(id)) * hashPrime)
			}
		default:
			for i, id := range col {
				hs[i] = (hs[i] ^ uint64(id)) * hashPrime
			}
		}
	}
	return hs
}

// Find returns the position of the row ids, or -1 when the set does
// not hold it. ids must have the set's width. Find only reads.
func (s *RowSet) Find(ids []uint32) int {
	if len(ids) != len(s.cols) {
		s.badWidth(ids)
	}
	return s.find(HashIDs(ids), ids)
}

// FindBatch sets hit[i] to whether the set holds row i of the n rows
// given as columns — row i is cols[k][i] for every k — exactly as n
// calls of Find would. cols must have the set's width and hit at least
// n entries. FindBatch only reads.
//
// The rows go in chunks of at most BatchCap, each hashed column by
// column; then every row's bucket word is loaded, and the head of its
// chain kept only when the word's tag bits hold the row's bit; only then
// are the chains walked, so that no row waits on the cache misses of the
// row before it, and a row is read only for a hit or for about one miss
// in 32 in a non-empty bucket. The scratch, a hash and a head per row
// of the chunk, is on the stack.
func (s *RowSet) FindBatch(cols [][]uint32, n int, hit []bool) {
	if len(cols) != len(s.cols) {
		panic(fmt.Sprintf("rel: batch of width %d probed in a set of width %d", len(cols), len(s.cols)))
	}
	hit = hit[:n]
	if len(s.heads) == 0 {
		clear(hit)
		return
	}
	var hashes [BatchCap]uint64
	var chains [BatchCap]int32
	heads, mask := s.heads, uint64(len(s.heads)-1)
	for lo := 0; lo < n; lo += BatchCap {
		hs := hashBatch(hashes[:min(n-lo, BatchCap)], cols, lo)
		ps := chains[:len(hs)]
		for i, h := range hs {
			ps[i] = probe(heads[h&mask], h)
		}
		for i, p := range ps {
			for p != 0 && !s.rowAt(int(p-1), cols, lo+i) {
				p = s.next[p-1]
			}
			hit[lo+i] = p != 0
		}
	}
}

// badWidth panics on a row of the wrong width, which would otherwise
// be compared on a prefix and could silently match.
func (s *RowSet) badWidth(ids []uint32) {
	panic(fmt.Sprintf("rel: row of width %d used with a set of width %d", len(ids), len(s.cols)))
}

// chain returns 1 + the position of the newest row whose hash falls in
// h's bucket, 0 when the bucket (or the whole index) is empty or its
// tag bits lack h's bit, so that no row of it can be the one probed.
func (s *RowSet) chain(h uint64) int32 {
	if len(s.heads) == 0 {
		return 0
	}
	return probe(s.heads[h&uint64(len(s.heads)-1)], h)
}

// samePos reports whether the rows at positions p and q are equal.
func (s *RowSet) samePos(p, q int) bool {
	for _, col := range s.cols {
		if col[p] != col[q] {
			return false
		}
	}
	return true
}

// rowAt reports whether the row at position pos is row i of cols.
func (s *RowSet) rowAt(pos int, cols [][]uint32, i int) bool {
	for k, col := range s.cols {
		if col[pos] != cols[k][i] {
			return false
		}
	}
	return true
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
	if len(s.heads) < want {
		s.rechain(want)
	}
}

// rechain replaces the index with one of at least n buckets (rounded up
// to a power of two), clearing the old one in place when it has that
// many, and rebuilds every chain from the columns, tag bits included.
// Positions are re-linked in insertion order, so a chain lists its rows
// newest first exactly as incremental inserts leave it.
func (s *RowSet) rechain(n int) {
	size := minBuckets
	for size < n {
		size <<= 1
	}
	if len(s.heads) == size {
		clear(s.heads)
	} else {
		s.heads = make([]uint64, size)
	}
	mask := uint64(size - 1)
	for pos := 0; pos < s.n; pos++ {
		h := uint64(hashOffset)
		for _, col := range s.cols {
			h = (h ^ uint64(col[pos])) * hashPrime
		}
		h = hashFinish(h)
		b := h & mask
		s.next[pos] = int32(uint32(s.heads[b]))
		s.heads[b] = pushed(s.heads[b], h, pos)
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
