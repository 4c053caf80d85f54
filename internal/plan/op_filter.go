package plan

// This file holds the executor's pipelined operators: selection,
// constant selection and tagging, projection, and the dedup filter.
// Like every operator of the executor (op_*.go), they exchange
// columnar rel.Batch blocks — flat uint32 ID columns, ~1024 rows each —
// through rel.BatchCursor, so the per-row interface call and the
// per-row allocation of a tuple-at-a-time pipeline are amortized over
// a whole batch. Every ID in every batch is an ID of the query's one
// dictionary (rel.QueryDict: the store's, plus the values the query
// creates), so equality is ID equality wherever the IDs came from, and
// the hot loops compare raw uint32s; only an order comparison decodes
// values.
//
// Batch ownership follows the contract in rel: a cursor's caller owns
// the yielded batch and releases it (or passes it on); operators that
// reshape rows write into pooled batches and release their inputs.
// Operator state — build tables, sinks, dedup filters, γ accumulators —
// grows the shared meter by exactly the rows held and releases them at
// exhaustion, while the batches themselves are pooled transport buffers
// the meter does not count.

import (
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// filterBatch compacts src to the rows where keep is true, calling
// keep exactly once per row in row order (stateful predicates — the
// dedup filter — rely on that). When every row passes, src itself is
// returned (ownership passes through); otherwise the kept rows are
// copied into a pooled batch and src is released. The result may be
// empty.
func filterBatch(src *rel.Batch, keep func(row int) bool) *rel.Batch {
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

// opHolds evaluates op on two IDs of the query dictionary q: equality and
// inequality compare the IDs, an order comparison decodes the values.
func opHolds(q *rel.QueryDict, op ra.Op, x, y uint32) bool {
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
	in   rel.BatchCursor
	i, j int
	op   ra.Op
	dict *rel.QueryDict
}

func (c *selectCursor) NextBatch() (*rel.Batch, bool) {
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		ci, cj := b.Col(c.i), b.Col(c.j)
		out := filterBatch(b, func(row int) bool { return opHolds(c.dict, c.op, ci[row], cj[row]) })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// selectConstCursor is σ_{i=c} (i 0-based): the builder interns the
// constant into the query dictionary, so the filter is a flat compare
// with its ID — one a stored value and a created one share alike.
type selectConstCursor struct {
	in rel.BatchCursor
	i  int
	id uint32
}

func (c *selectConstCursor) NextBatch() (*rel.Batch, bool) {
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		col, id := b.Col(c.i), c.id
		out := filterBatch(b, func(row int) bool { return col[row] == id })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// tagCursor is τ_c: input columns are block-copied and one column of
// the constant's ID — interned into the query dictionary by the
// builder — is appended.
type tagCursor struct {
	in rel.BatchCursor
	id uint32
}

func (c *tagCursor) NextBatch() (*rel.Batch, bool) {
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
	}
	tag := out.WritableCol(ar)[:n]
	for i := range tag {
		tag[i] = c.id
	}
	out.SetLen(n)
	b.Release()
	return out, true
}

// projectCursor is π_{cols} (cols 1-based): a column gather — each
// output column block-copies (possibly repeating or reordering) an
// input column. Deduplication is deferred, which is
// sound because every consumer either pipelines further or deduplicates
// in a sink (the dedup filter drops duplicates where they arise
// instead).
type projectCursor struct {
	in   rel.BatchCursor
	cols []int
}

func (c *projectCursor) NextBatch() (*rel.Batch, bool) {
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
	}
	out.SetLen(n)
	b.Release()
	return out, true
}

// dedupCursor is the pipelined dedup filter at batch granularity: the
// idSet holds one row per distinct tuple (charged to the meter,
// released at exhaustion) and each batch is compacted to its fresh
// rows, so each distinct row of in passes exactly once.
type dedupCursor struct {
	in    rel.BatchCursor
	arity int
	meter *meter
	set   *idSet
	held  int
}

func (c *dedupCursor) NextBatch() (*rel.Batch, bool) {
	if c.set == nil && c.held == 0 {
		c.set = newIDSet(c.arity)
	}
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			c.meter.release(c.held)
			c.held = 0
			c.set = nil
			return nil, false
		}
		out := filterBatch(b, func(row int) bool {
			if c.set.add(b, row) {
				c.meter.grow(1)
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
