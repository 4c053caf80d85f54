package plan

// This file holds the executor's pipelined operators: selection,
// constant selection and tagging, projection, and the dedup filter.
// Like every operator of the executor (op_*.go), they exchange
// columnar rel.Batch blocks — flat uint32 ID columns, ~1024 rows each —
// through rel.BatchCursor, so the per-row interface call and the
// per-row allocation of a tuple-at-a-time pipeline are amortized over
// a whole batch, and the hot loops run on interned IDs through rel.IDMap
// translation caches: after the first occurrence of a value, a probe is
// an array load and an integer compare.
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
	dst.AdoptDicts(src)
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

// selectCursor is σ_{i op j} (i, j 0-based): same-dictionary equality
// and inequality compare raw IDs; everything else decodes the two
// values.
type selectCursor struct {
	in   rel.BatchCursor
	i, j int
	op   ra.Op
}

func (c *selectCursor) NextBatch() (*rel.Batch, bool) {
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		ci, cj := b.Col(c.i), b.Col(c.j)
		di, dj := b.Dict(c.i), b.Dict(c.j)
		var out *rel.Batch
		if di == dj && (c.op == ra.OpEq || c.op == ra.OpNe) {
			wantEq := c.op == ra.OpEq
			out = filterBatch(b, func(row int) bool { return (ci[row] == cj[row]) == wantEq })
		} else {
			op := c.op
			out = filterBatch(b, func(row int) bool { return op.Eval(di.Value(ci[row]), dj.Value(cj[row])) })
		}
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// selectConstCursor is σ_{i=c} (i 0-based): the constant is resolved to
// an ID in the column's dictionary once, then the filter is a flat ID
// compare; a constant absent from the dictionary kills the whole batch
// without touching a row. A positive resolution is stable (interner IDs
// are never reassigned), but a negative one can go stale when the
// dictionary is still growing — γ interns each count into its output
// dictionary as it emits, so σ_{2=2} over γ's counts meets 2 only in a
// later batch — so an absent verdict is re-checked whenever the
// dictionary has grown since it was cached.
type selectConstCursor struct {
	in rel.BatchCursor
	i  int
	c  rel.Value

	dict    *rel.Interner
	dictLen int
	id      uint32
	present bool
}

func (c *selectConstCursor) NextBatch() (*rel.Batch, bool) {
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		if d := b.Dict(c.i); d != c.dict || (!c.present && d.Len() != c.dictLen) {
			c.dict, c.dictLen = d, d.Len()
			c.id, c.present = d.ID(c.c)
		}
		if !c.present {
			b.Release()
			continue
		}
		col, id := b.Col(c.i), c.id
		out := filterBatch(b, func(row int) bool { return col[row] == id })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// tagCursor is τ_c: input columns are block-copied and one constant
// column — a single-entry dictionary, all IDs zero — is appended.
type tagCursor struct {
	in   rel.BatchCursor
	dict *rel.Interner // contains exactly the tag constant, ID 0
}

func newTagCursor(in rel.BatchCursor, c rel.Value) *tagCursor {
	d := rel.NewInterner()
	d.Intern(c)
	return &tagCursor{in: in, dict: d}
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
		out.SetDict(k, b.Dict(k))
	}
	tag := out.WritableCol(ar)[:n]
	for i := range tag {
		tag[i] = 0
	}
	out.SetDict(ar, c.dict)
	out.SetLen(n)
	b.Release()
	return out, true
}

// projectCursor is π_{cols} (cols 1-based): a column gather — each
// output column block-copies (possibly repeating or reordering) an
// input column with its dictionary. Deduplication is deferred, which is
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
		out.SetDict(p, b.Dict(col-1))
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
