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
// A pooled batch carries none: the executor's operators write IDs of
// the one query dictionary they all share (rel.QueryDict) and decode
// through it themselves.
//
// Ownership contract: a batch yielded by a BatchCursor belongs to the
// consumer, which must call Release when done with it (passing it
// downstream transfers ownership). A batch stays valid until the
// consumer calls Release or pulls the next batch from the same cursor,
// whichever comes first. Released non-view batches return to a
// sync.Pool; view batches — whose columns alias relation or operator
// storage, such as the ones Relation.BatchScan yields — are read-only
// and their Release is a no-op, so aliased storage can never be
// recycled into a writable batch.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BatchCap is the default number of rows per batch: large enough to
// amortize per-batch overhead (channel sends, virtual calls, pool
// round-trips), small enough that a batch of a few columns stays
// within L1/L2 cache.
const BatchCap = 1024

// Batch is a fixed-capacity columnar block of rows: per attribute one
// flat column of interned value IDs, and for a view the dictionary
// that decodes them.
type Batch struct {
	capacity int // logical row capacity (the Full bound)
	physical int // allocated column length, >= capacity for pooled batches
	n        int
	store    [][]uint32 // backing columns, each len == physical (nil for views)
	cols     [][]uint32 // active columns; for views these alias foreign storage
	dict     *Interner  // a view's dictionary; nil on a pooled batch
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

// Dict returns the dictionary of a view's IDs, nil for a pooled batch.
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

// AppendRowFrom copies row `row` of src onto the end of b, which must
// not be full; the IDs are copied verbatim.
func (b *Batch) AppendRowFrom(src *Batch, row int) {
	for k := range b.cols {
		b.cols[k][b.n] = src.cols[k][row]
	}
	b.n++
}

// Release returns the batch to the pool. Views (whose columns alias
// relation or operator storage) are not pooled: their Release is a
// no-op. Release must be called at most once per batch obtained.
func (b *Batch) Release() {
	if b == nil || b.view {
		return
	}
	batchLive.Add(-1)
	batchPool.Put(b)
}

// The pool recycles non-view batches. The live count is what every
// leak check reads: after a query, run or abort, it must be back at
// its level before the query.
var (
	batchPool sync.Pool
	batchLive atomic.Int64 // batches currently checked out
)

// LiveBatches reports the number of pooled batches checked out and not
// yet released.
func LiveBatches() int64 { return batchLive.Load() }

// NewBatch returns an empty writable batch of the given arity and
// BatchCap row capacity, recycled from the pool when possible.
func NewBatch(arity int) *Batch { return NewBatchSized(arity, BatchCap) }

// NewBatchSized is NewBatch with an explicit row capacity (the ST4
// batch-size sweep uses 1 and 64 next to the default 1024). Pooled
// batches keep their largest capacity, so mixed sizes still recycle.
func NewBatchSized(arity, capacity int) *Batch {
	if arity < 0 || capacity < 1 {
		panic(fmt.Sprintf("rel: batch arity %d capacity %d", arity, capacity))
	}
	batchLive.Add(1)
	if v := batchPool.Get(); v != nil {
		b := v.(*Batch)
		if b.physical >= capacity {
			b.reshape(arity, capacity)
			return b
		}
		// Too small for this request (only possible when capacity >
		// BatchCap): drop it and allocate fresh below.
	}
	physical := capacity
	if physical < BatchCap {
		physical = BatchCap // never pool undersized column arrays
	}
	b := &Batch{physical: physical}
	b.reshape(arity, capacity)
	return b
}

// reshape prepares a pooled batch for reuse at the given arity and
// logical capacity, recycling its column arrays.
func (b *Batch) reshape(arity, capacity int) {
	b.n = 0
	b.view = false
	b.capacity = capacity
	for len(b.store) < arity {
		b.store = append(b.store, make([]uint32, b.physical))
	}
	b.cols = b.store[:arity]
}

// MakeView initializes b as a view batch of len(cols) columns decoded
// by dict (nil for IDs a caller decodes itself). Pair with SliceView;
// the view's Release is a no-op, so aliased storage can never reach
// the pool.
func (b *Batch) MakeView(cols [][]uint32, dict *Interner) {
	b.view = true
	b.store = nil
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
// next batch and true, or (nil, false) at exhaustion. The yielded
// batch is owned by the caller (see the ownership contract above).
type BatchCursor interface {
	NextBatch() (*Batch, bool)
}

// BatchHolder is implemented by cursors that retain ownership of a
// pooled Batch between calls (or across an inner pull that may
// abort). ReleaseHeld releases whatever the cursor currently owns
// and is idempotent; governed evaluators register the cursor with
// the query's governor, whose boundary recovery calls it, so no abort
// path can strand a pooled batch. It must only be called once the
// cursor is quiescent: no pull of it is in progress.
type BatchHolder interface{ ReleaseHeld() }
