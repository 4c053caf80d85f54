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
// pulls in until keep leaves some row of a batch. keep is called
// exactly once per row in row order (stateful predicates — the dedup
// filter — rely on that). When every row of a batch passes, the batch
// itself is yielded; otherwise the kept rows are copied into the
// filter's own batch.
type filter struct {
	in  rel.BatchCursor
	out *rel.Batch // the kept rows of a partly kept batch; nil until one
}

// next yields the next nonempty compacted batch, or false at
// exhaustion.
func (f *filter) next(keep func(b *rel.Batch, row int) bool) (*rel.Batch, bool) {
	if f.out != nil {
		f.out.Reset()
	}
	for {
		b, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		n := b.Len()
		first := 0
		for first < n && keep(b, first) {
			first++
		}
		if first == n {
			if n > 0 {
				return b, true
			}
			continue
		}
		refill(&f.out, b.Arity(), n)
		for k := 0; k < b.Arity(); k++ {
			copy(f.out.WritableCol(k)[:first], b.Col(k)[:first])
		}
		f.out.SetLen(first)
		for row := first + 1; row < n; row++ {
			if keep(b, row) {
				f.out.AppendRowFrom(b, row)
			}
		}
		if f.out.Len() > 0 {
			return f.out, true
		}
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
	return c.next(func(b *rel.Batch, row int) bool {
		return opHolds(c.dict, c.op, b.Col(c.i)[row], b.Col(c.j)[row])
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
	return c.next(func(b *rel.Batch, row int) bool { return b.Col(c.i)[row] == c.id })
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
// idSet holds one row per distinct tuple (charged to the meter,
// released at exhaustion) and each batch is compacted to its fresh
// rows, so each distinct row of in passes exactly once.
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
	b, ok := c.next(func(b *rel.Batch, row int) bool {
		if c.set.add(b, row) {
			c.meter.grow(1)
			c.held++
			return true
		}
		return false
	})
	if !ok {
		c.meter.release(c.held)
		c.held = 0
		c.set = nil
	}
	return b, ok
}
