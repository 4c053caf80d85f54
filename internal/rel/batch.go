package rel

// This file implements the columnar batch layer of the library: the
// unit of vectorized execution. A Batch is a struct-of-arrays slice of
// a relation — one flat []uint32 column of interned value IDs per
// attribute — holding up to BatchCap rows. Moving batches instead of
// tuples removes the two constant factors that dominate
// tuple-at-a-time execution: one interface call per row per operator,
// and one allocation per row at every tuple-producing operator. A batch
// amortizes both over ~1024 rows, and the hot inner loops (selection,
// projection, dedup probes, join probes) become flat array walks over
// uint32 IDs.
//
// A batch carries at most one dictionary. A view over stored columns
// (a relation's scan, a view a caller builds with MakeView) carries the
// dictionary its IDs are drawn from, so Row and Cursor can decode it.
// A batch from NewBatchSized carries none: the executor's operators
// write IDs of the one query dictionary they all share and decode
// through it themselves. That dictionary is the result's, based on the
// store's (NewRelationOver): the store's IDs are its IDs, and the
// values a query creates go into its own tail, so the store is never
// written and the result takes the rows' IDs as they stand. A result
// reads its store's dictionary, so no goroutine may write the store
// while another reads a result, as for any read of the store.
//
// Validity rule: a batch yielded by a BatchCursor's NextBatch is valid
// until the consumer's next pull of that cursor, and it is read-only to
// the consumer. Each cursor owns the one batch it yields and overwrites
// it on every pull (the vector-at-a-time contract of MonetDB/X100), or
// yields a view over storage it reads, so nothing is handed back and
// an abort leaves nothing to return. A consumer that keeps rows past
// its next pull copies them, as sinks, build tables and row decoders
// do. Under the race detector Reset first overwrites the rows it drops
// with an ID no dictionary holds (poisonBatches), so every suite run
// with -race fails loudly where a consumer keeps a batch too long.

import "fmt"

// BatchCap is the default number of rows per batch: large enough to
// amortize per-batch overhead (virtual calls, per-batch setup), small
// enough that a batch of a few columns stays within L1/L2 cache.
const BatchCap = 1024

// Batch is a fixed-capacity columnar block of rows: per attribute one
// flat column of interned value IDs, and for a view the dictionary
// that decodes them.
type Batch struct {
	capacity int // row capacity (the Full bound)
	n        int
	cols     [][]uint32 // the columns; a view's alias foreign storage
	dict     *Interner  // a view's dictionary; nil on an owned batch
	view     bool
}

// Arity returns the number of columns.
func (b *Batch) Arity() int { return len(b.cols) }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the row capacity.
func (b *Batch) Cap() int { return b.capacity }

// Full reports whether the batch has no room for another row.
func (b *Batch) Full() bool { return b.n >= b.capacity }

// Col returns column i as a slice of the rows currently held. The
// slice aliases batch (or, for views, relation) storage: read-only for
// anyone but the batch's owner.
func (b *Batch) Col(i int) []uint32 { return b.cols[i][:b.n] }

// WritableCol returns column i at full capacity for bulk writes;
// pair it with SetLen once every column holds the same row count. It
// panics on view batches, whose columns alias foreign storage.
func (b *Batch) WritableCol(i int) []uint32 {
	if b.view {
		panic("rel: WritableCol on a view batch")
	}
	return b.cols[i]
}

// SetLen declares the batch to hold n rows, after bulk column writes.
func (b *Batch) SetLen(n int) {
	if n < 0 || n > b.capacity {
		panic(fmt.Sprintf("rel: batch SetLen %d outside 0..%d", n, b.capacity))
	}
	b.n = n
}

// Dict returns the dictionary of a view's IDs, nil for an owned batch.
func (b *Batch) Dict() *Interner { return b.dict }

// Row decodes one row of a view into buf (grown as needed) and returns
// it. The returned tuple is freshly decoded and owned by the caller
// only until the next Row call with the same buf.
func (b *Batch) Row(buf Tuple, row int) Tuple {
	if cap(buf) < len(b.cols) {
		buf = make(Tuple, len(b.cols))
	}
	buf = buf[:len(b.cols)]
	for k := range b.cols {
		buf[k] = b.dict.Value(b.cols[k][row])
	}
	return buf
}

// NewBatchSized returns an empty writable batch of the given arity and
// row capacity, its columns in one allocation. The cursor that yields
// it keeps it and refills it on every pull (Reset).
func NewBatchSized(arity, capacity int) *Batch {
	if arity < 0 || capacity < 1 {
		panic(fmt.Sprintf("rel: batch arity %d capacity %d", arity, capacity))
	}
	b := &Batch{capacity: capacity, cols: make([][]uint32, arity)}
	backing := make([]uint32, arity*capacity)
	for k := range b.cols {
		b.cols[k] = backing[k*capacity : (k+1)*capacity : (k+1)*capacity]
	}
	return b
}

// Reset empties a batch from NewBatchSized for refilling; its owner
// calls it on every pull, which ends the previous batch's validity.
// Under the race detector it first overwrites the rows it held with
// ^uint32(0), so a consumer that kept the batch, or a column of it,
// across the pull reads an ID no dictionary holds. It panics on a view
// batch, whose columns alias foreign storage.
func (b *Batch) Reset() {
	if b.view {
		panic("rel: Reset on a view batch")
	}
	if poisonBatches {
		for _, col := range b.cols {
			for i := range col[:b.n] {
				col[i] = ^uint32(0)
			}
		}
	}
	b.n = 0
}

// MakeView initializes b as a view batch of len(cols) columns decoded
// by dict (nil for IDs a caller decodes itself). Pair with SliceView.
func (b *Batch) MakeView(cols [][]uint32, dict *Interner) {
	b.view = true
	b.cols = make([][]uint32, len(cols))
	b.dict = dict
}

// SliceView re-points a view batch's columns at rows [lo, hi) of src.
func (b *Batch) SliceView(src [][]uint32, lo, hi int) {
	for k := range b.cols {
		b.cols[k] = src[k][lo:hi]
	}
	b.n = hi - lo
	b.capacity = b.n
}

// BatchCursor is the pull-based batch iterator: NextBatch returns the
// next batch and true, or (nil, false) at exhaustion. The batch is
// valid until the caller's next pull, and read-only to the caller (see
// the validity rule above).
type BatchCursor interface {
	NextBatch() (*Batch, bool)
}
