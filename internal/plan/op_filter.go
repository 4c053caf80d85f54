package plan

// This file holds the executor's pipelined operators: selection,
// constant selection and tagging, projection, and the dedup filter.
// Like every operator of the executor (op_*.go), they exchange
// columnar rel.Batch blocks — flat uint32 ID columns, ~1024 rows each —
// through rel.BatchCursor, so the per-row interface call and the
// per-row allocation of a tuple-at-a-time pipeline are amortized over
// a whole batch. Every ID in every batch is an ID of the query's one
// dictionary (the result's, based on the store's: rel.NewRelationOver),
// so equality is ID equality wherever the IDs came from, and
// the hot loops compare raw uint32s; only an order comparison decodes
// values.
//
// Batches follow rel's validity rule: a batch a cursor yields is valid
// until the consumer's next pull of that cursor. A cursor that writes
// rows keeps one batch of its own, allocated on first use and Reset at
// the start of every pull; projection yields a view over its input's
// columns and copies nothing. Operator state — build tables, sinks,
// dedup filters, γ accumulators — copies the rows it keeps and grows
// the shared meter by exactly the rows held, releasing them at
// exhaustion; the batches themselves are transport the meter does not
// count.

import (
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// refill empties *out, a cursor's own batch, for this pull (Reset),
// first allocating it when it is nil or holds fewer than rows rows.
func refill(out **rel.Batch, arity, rows int) *rel.Batch {
	if *out != nil {
		(*out).Reset()
	}
	if *out == nil || (*out).Cap() < rows {
		*out = rel.NewBatchSized(arity, max(rows, 1))
	}
	return *out
}

// filter is the pull loop of the compacting operators — the
// selections, the dedup filter, the difference and the semijoins: it
// pulls in until mark keeps some row of a batch. mark decides a whole
// batch at once: it is called exactly once per nonempty batch, in
// order, and sets keep[row] for every row (stateful predicates — the
// dedup filter — rely on seeing each batch once, in order); an empty
// batch is skipped without a call. When every row of a batch is kept,
// the batch itself is yielded; otherwise the kept rows are copied,
// column by column, into the filter's own batch.
type filter struct {
	in   rel.BatchCursor
	out  *rel.Batch // the kept rows of a partly kept batch; nil until one
	keep []bool     // the selection vector mark fills, one entry per row
}

// next yields the next nonempty compacted batch, or false at
// exhaustion.
func (f *filter) next(mark func(b *rel.Batch, keep []bool)) (*rel.Batch, bool) {
	if f.out != nil {
		f.out.Reset()
	}
	for {
		b, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		if len(f.keep) < n {
			f.keep = make([]bool, n)
		}
		keep := f.keep[:n]
		mark(b, keep)
		kept := 0
		for _, k := range keep {
			if k {
				kept++
			}
		}
		if kept == n {
			return b, true
		}
		if kept == 0 {
			continue
		}
		out := refill(&f.out, b.Arity(), n)
		for k := 0; k < b.Arity(); k++ {
			dst, m := out.WritableCol(k), 0
			for row, id := range b.Col(k) {
				dst[m] = id
				if keep[row] {
					m++
				}
			}
		}
		out.SetLen(kept)
		return out, true
	}
}

// opHolds evaluates op on two IDs of the query dictionary q: equality and
// inequality compare the IDs, an order comparison decodes the values.
func opHolds(q *rel.Interner, op ra.Op, x, y uint32) bool {
	switch op {
	case ra.OpEq:
		return x == y
	case ra.OpNe:
		return x != y
	}
	return op.Eval(q.Value(x), q.Value(y))
}

// selectCursor is σ_{i op j} (i, j 0-based).
type selectCursor struct {
	filter
	i, j int
	op   ra.Op
	dict *rel.Interner
}

func (c *selectCursor) NextBatch() (*rel.Batch, bool) {
	return c.next(func(b *rel.Batch, keep []bool) {
		x, y := b.Col(c.i), b.Col(c.j)
		for row := range keep {
			keep[row] = opHolds(c.dict, c.op, x[row], y[row])
		}
	})
}

// selectConstCursor is σ_{i=c} (i 0-based): the builder interns the
// constant into the query dictionary, so the filter is a flat compare
// with its ID — one a stored value and a created one share alike.
type selectConstCursor struct {
	filter
	i  int
	id uint32
}

func (c *selectConstCursor) NextBatch() (*rel.Batch, bool) {
	return c.next(func(b *rel.Batch, keep []bool) {
		for row, id := range b.Col(c.i) {
			keep[row] = id == c.id
		}
	})
}

// tagCursor is τ_c: input columns are block-copied into the cursor's
// own batch and one column of the constant's ID — interned into the
// query dictionary by the builder — is appended.
type tagCursor struct {
	in  rel.BatchCursor
	id  uint32
	out *rel.Batch
}

func (c *tagCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	if !ok {
		return nil, false
	}
	n, ar := b.Len(), b.Arity()
	out := refill(&c.out, ar+1, n)
	for k := 0; k < ar; k++ {
		copy(out.WritableCol(k)[:n], b.Col(k))
	}
	tag := out.WritableCol(ar)[:n]
	for i := range tag {
		tag[i] = c.id
	}
	out.SetLen(n)
	return out, true
}

// projectCursor is π_{cols} (cols 1-based): a view whose columns are
// the chosen input columns (possibly repeated or reordered), re-pointed
// on every pull, so it copies nothing. Deduplication is deferred,
// which is sound because every consumer either pipelines further or
// deduplicates in a sink (the dedup filter drops duplicates where they
// arise instead).
type projectCursor struct {
	in   rel.BatchCursor
	cols []int
	src  [][]uint32 // per output column, the input column it shows
	view rel.Batch
}

func (c *projectCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	if !ok {
		return nil, false
	}
	if c.src == nil {
		c.src = make([][]uint32, len(c.cols))
		c.view.MakeView(c.src, nil)
	}
	for p, col := range c.cols {
		c.src[p] = b.Col(col - 1)
	}
	c.view.SliceView(c.src, 0, b.Len())
	return &c.view, true
}

// dedupCursor is the pipelined dedup filter at batch granularity: the
// idSet holds one row per distinct tuple (charged to the meter once
// per batch, released at exhaustion), each batch goes into it at once,
// and the batch is compacted to its fresh rows, so each distinct row of
// in passes exactly once.
type dedupCursor struct {
	filter
	arity int
	meter *meter
	set   *idSet
	held  int
}

func (c *dedupCursor) NextBatch() (*rel.Batch, bool) {
	if c.set == nil && c.held == 0 {
		c.set = newIDSet(c.arity)
	}
	b, ok := c.next(func(b *rel.Batch, keep []bool) {
		added := c.set.insertBatch(b, keep)
		c.meter.grow(added)
		c.held += added
	})
	if !ok {
		c.meter.release(c.held)
		c.held = 0
		c.set = nil
	}
	return b, ok
}
