package xra

// This file implements the streaming (Volcano-style) evaluator for the
// extended algebra, completing the streaming story for every algebra
// in the repository: projections pipeline (deduplication deferred to
// the consuming sink), joins materialize only their build side on
// interned-ID keys, wrapped pure-RA subexpressions pipeline straight
// through ra.OpenStream — sharing one resident meter with the
// enclosing plan — and γ streams its input into the interned
// accumulator of gammaAgg, holding one entry per group and distinct
// counted value rather than the whole input.
//
// That last point is the Section 5 punchline in memory terms: the
// γ-division expression not only keeps its *flow* linear (what
// EvalTraced shows), its executor *holds* only the per-group counters
// and one build side at a time, so Trace.MaxResident stays linear too
// (experiment ST2).

import (
	"context"
	"fmt"

	"radiv/internal/exec"
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// EvalStreamed evaluates the expression with the streaming executor
// and returns the result relation. The result is always a fresh
// relation owned by the caller.
func EvalStreamed(e Expr, d rel.ReadStore) *rel.Relation {
	res, _ := EvalStreamedTraced(e, d)
	return res
}

// EvalStreamedTraced evaluates the expression with the streaming
// executor and also returns the trace. Step sizes count the tuples
// emitted by each operator (wrapped RA steps report the RA streaming
// executor's flow counts); MaxResident is filled in (see Trace). The
// expression is validated first, as in EvalTraced.
func EvalStreamedTraced(e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("xra: invalid expression: " + err.Error())
	}
	return evalStreamedMetered(&ra.Meter{}, e, d)
}

// EvalContext is the error-returning boundary over the materialized
// evaluator: internal panics surface as typed, wrapped errors.
// Cancellation is only observed before evaluation starts; use
// EvalStreamedContext for cancellable execution.
func EvalContext(ctx context.Context, e Expr, d rel.ReadStore) (res *rel.Relation, err error) {
	defer exec.RecoverPanic(&err)
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("xra: query canceled: %w", cerr)
		}
	}
	return Eval(e, d), nil
}

// EvalStreamedContext is the governed streaming entry point: ctx
// cancellation and lim budgets are enforced at every pull boundary
// (wrapped RA subplans included — they share the governed meter),
// internal panics become typed errors, and on error every pooled
// batch the evaluation acquired has been released.
func EvalStreamedContext(ctx context.Context, e Expr, d rel.ReadStore, lim exec.Limits) (*rel.Relation, *Trace, error) {
	if verr := Validate(e); verr != nil {
		return nil, nil, fmt.Errorf("xra: invalid expression: %w", verr)
	}
	res, tr, err := func() (res *rel.Relation, tr *Trace, err error) {
		g := exec.NewGovernor(ctx, lim)
		defer g.Recover(&err)
		res, tr = evalStreamedMetered(ra.NewGovernedMeter(g), e, d)
		return res, tr, nil
	}()
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// EvalStreamedGoverned runs the streaming executor under a caller-
// supplied governor (the plan layer's shared-governor hook). The
// caller owns the boundary: it must recover with Governor.Recover. A
// nil governor is exactly the legacy ungoverned path.
func EvalStreamedGoverned(g *exec.Governor, e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("xra: invalid expression: " + err.Error())
	}
	return evalStreamedMetered(ra.NewGovernedMeter(g), e, d)
}

// evalStreamedMetered is the executor core shared by the legacy and
// governed entries.
func evalStreamedMetered(meter *ra.Meter, e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	b := &xStreamBuilder{d: d, meter: meter}
	cur, root := b.cursor(e)
	cur = meter.Guard(cur)
	out := rel.NewRelation(e.Arity())
	for t, ok := cur.Next(); ok; t, ok = cur.Next() {
		out.Add(t)
	}
	tr := &Trace{}
	root.record(tr)
	tr.MaxResident = meter.Max()
	return out, tr
}

// raStepper is the slice of ra.Stream/ra.BatchStream the trace needs:
// the post-order walk over the wrapped RA subplan's flow counts.
type raStepper interface {
	EachStep(f func(e ra.Expr, n int))
}

// xCountNode mirrors one occurrence of an expression node in the plan.
// Wrap nodes carry the compiled RA subplan instead of a count: the
// materialized evaluator records a wrapped step per inner RA node and
// none for the Wrap itself, and the streamed trace matches that shape.
type xCountNode struct {
	e    Expr
	n    int
	kids []*xCountNode
	sub  raStepper // non-nil exactly for Wrap nodes
}

func (c *xCountNode) record(tr *Trace) {
	for _, k := range c.kids {
		k.record(tr)
	}
	if c.sub != nil {
		c.sub.EachStep(func(e ra.Expr, n int) { tr.record(&Wrap{E: e}, n) })
		return
	}
	tr.record(c.e, c.n)
}

// xCountCursor counts emissions into the plan's xCountNode.
type xCountCursor struct {
	in   ra.Cursor
	node *xCountNode
}

func (c *xCountCursor) Next() (rel.Tuple, bool) {
	t, ok := c.in.Next()
	if ok {
		c.node.n++
	}
	return t, ok
}

// xStreamBuilder translates an extended-algebra expression tree into a
// cursor plan.
type xStreamBuilder struct {
	d     rel.ReadStore
	meter *ra.Meter
}

func (b *xStreamBuilder) cursor(e Expr) (ra.Cursor, *xCountNode) {
	node := &xCountNode{e: e}
	var cur ra.Cursor
	switch n := e.(type) {
	case *Wrap:
		s := ra.OpenStream(n.E, b.d, b.meter, ra.StreamOptions{})
		node.sub = s
		// The Wrap itself is transparent: no count wrapper, the inner
		// plan counts its own flows.
		return s, node
	case *Gamma:
		in, kn := b.cursor(n.E)
		node.kids = []*xCountNode{kn}
		cur = &gammaCursor{in: in, g: n, inputArity: n.E.Arity(),
			dedupAll: n.CountCol == 0 && mayEmitDuplicates(n.E), meter: b.meter}
	case *Join:
		l, ln := b.cursor(n.L)
		node.kids = []*xCountNode{ln}
		if len(n.Cond.EqPairs()) > 0 {
			rc, rn := b.cursor(n.E)
			node.kids = append(node.kids, rn)
			cur = ra.NewHashJoinCursor(l, rc, n.Cond, b.meter)
		} else if base := b.wrappedBaseRel(n.E); base != nil {
			// Pure-theta join against a wrapped stored relation: replay
			// it in place per probe tuple, holding nothing — the same
			// zero-resident path the ra and sa executors take for stored
			// right sides. The Wrap node still appears in the trace, with
			// zero flow, as stored relations consumed in place do.
			node.kids = append(node.kids, &xCountNode{e: n.E})
			cur = ra.NewLoopJoinCursor(l, nil, base, n.Cond, b.meter)
		} else {
			rc, rn := b.cursor(n.E)
			node.kids = append(node.kids, rn)
			cur = ra.NewLoopJoinCursor(l, rc, nil, n.Cond, b.meter)
		}
	case *Project:
		in, kn := b.cursor(n.E)
		node.kids = []*xCountNode{kn}
		cols := n.Cols
		cur = ra.NewMapCursor(in, func(t rel.Tuple) rel.Tuple { return t.Project(cols) })
	default:
		panic(fmt.Sprintf("xra: unknown expression %T", e))
	}
	return &xCountCursor{in: cur, node: node}, node
}

// wrappedBaseRel unwraps a Wrap around a bare relation name and
// resolves its store view, or returns nil when e is anything else —
// the detector behind the in-place replay of stored theta-join sides.
func (b *xStreamBuilder) wrappedBaseRel(e Expr) rel.StoredRel {
	w, ok := e.(*Wrap)
	if !ok {
		return nil
	}
	r, ok := w.E.(*ra.Rel)
	if !ok {
		return nil
	}
	return rel.CheckView(b.d, r.Name, r.Arity(), "xra")
}

// mayEmitDuplicates reports whether the streaming plan for e can
// deliver the same tuple more than once. Only dedup-deferring
// projections create duplicates; blocking sinks (union, difference,
// γ itself) and stored relations are duplicate-free, and the remaining
// operators pass their input's property through (joins pair distinct
// inputs into distinct outputs). γ's count(*) uses this to decide
// whether exactness requires full-tuple deduplication.
func mayEmitDuplicates(e Expr) bool {
	switch n := e.(type) {
	case *Wrap:
		return raMayEmitDuplicates(n.E)
	case *Gamma:
		return false
	case *Project:
		return true
	case *Join:
		return mayEmitDuplicates(n.L) || mayEmitDuplicates(n.E)
	}
	return true // unknown node: be conservative
}

// raMayEmitDuplicates is mayEmitDuplicates over a wrapped pure-RA
// subplan (ra.OpenStream's operators).
func raMayEmitDuplicates(e ra.Expr) bool {
	switch n := e.(type) {
	case *ra.Rel, *ra.Union:
		// Stored relations are sets; union is a deduplicating sink.
		return false
	case *ra.Diff:
		// The difference cursor only materializes its subtrahend: the
		// left input streams through the membership filter undeduped.
		return raMayEmitDuplicates(n.L)
	case *ra.Project:
		return true
	case *ra.Select:
		return raMayEmitDuplicates(n.E)
	case *ra.SelectConst:
		return raMayEmitDuplicates(n.E)
	case *ra.ConstTag:
		return raMayEmitDuplicates(n.E)
	case *ra.Join:
		return raMayEmitDuplicates(n.L) || raMayEmitDuplicates(n.E)
	}
	return true
}

// gammaCursor streams its input into a gammaAgg accumulator — one
// resident entry per group, per distinct counted value, and (for
// count(*) over a duplicate-capable input, whose exactness needs it)
// per distinct input tuple — then emits the aggregate rows straight
// from the accumulator, building each row on demand. No result
// relation is materialized, so the operator's state is exactly what
// the meter charged: the accumulator, released at exhaustion.
type gammaCursor struct {
	in         ra.Cursor
	g          *Gamma
	inputArity int
	dedupAll   bool
	meter      *ra.Meter

	opened bool
	agg    *gammaAgg
	gi     int
	done   bool
}

func (c *gammaCursor) Next() (rel.Tuple, bool) {
	if !c.opened {
		c.opened = true
		c.agg = newGammaAgg(c.g, c.inputArity, c.dedupAll)
		for t, ok := c.in.Next(); ok; t, ok = c.in.Next() {
			if grew := c.agg.add(t); grew > 0 {
				c.meter.Grow(grew)
			}
		}
	}
	if c.done {
		return nil, false
	}
	if c.gi < len(c.agg.groups) {
		grp := c.agg.groups[c.gi]
		c.gi++
		return grp.rep.Concat(rel.Tuple{rel.Int(int64(grp.n))}), true
	}
	emitZero := len(c.g.GroupCols) == 0 && len(c.agg.groups) == 0
	c.done = true
	c.meter.Release(c.agg.held)
	c.agg = nil
	if emitZero {
		// Grand aggregate over an empty input is a single zero row, as
		// in SQL (gammaAgg.result does the same for the materialized
		// evaluator).
		return rel.Tuple{rel.Int(0)}, true
	}
	return nil, false
}
