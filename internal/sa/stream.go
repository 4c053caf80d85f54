package sa

// This file implements the streaming (Volcano-style) evaluator for the
// semijoin algebra, on the same Cursor substrate as ra.EvalStreamed:
// selections, constant selections, constant tagging and projections
// are fully pipelined (projections defer deduplication to the
// consuming sink), semijoins and antijoins materialize only their
// build side — for equality-only conditions just the distinct key
// tuples, indexed on interned value IDs via ra.JoinKeyer — and union
// and difference remain blocking sinks.
//
// The paper's point about SA is that every operator's output is
// bounded by one of its inputs, so the *flow* is linear by
// construction. Streaming sharpens that into a resident-memory
// statement: the executor holds only build-side key sets and sinks, so
// Trace.MaxResident stays linear in the database (experiment ST2), the
// memory-side counterpart of the syntactic linearity of Definition 2.

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
// emitted by each operator — dedup-deferred projections can exceed the
// node's set cardinality, and stored relations consumed in place (the
// subtrahend of a difference, the replayed side of a θ-semijoin) count
// zero. MaxResident is filled in (see Trace). The expression is
// validated first, as in EvalTraced.
func EvalStreamedTraced(e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("sa: invalid expression: " + err.Error())
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
			return nil, fmt.Errorf("sa: query canceled: %w", cerr)
		}
	}
	return Eval(e, d), nil
}

// EvalStreamedContext is the governed streaming entry point: ctx
// cancellation and lim budgets are enforced at every pull boundary,
// internal panics become typed errors, and on error every pooled
// batch the evaluation acquired has been released.
func EvalStreamedContext(ctx context.Context, e Expr, d rel.ReadStore, lim exec.Limits) (*rel.Relation, *Trace, error) {
	if verr := Validate(e); verr != nil {
		return nil, nil, fmt.Errorf("sa: invalid expression: %w", verr)
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
		panic("sa: invalid expression: " + err.Error())
	}
	return evalStreamedMetered(ra.NewGovernedMeter(g), e, d)
}

// evalStreamedMetered is the executor core shared by the legacy and
// governed entries; a governed meter threads guard cursors through
// every leaf scan and the root drain.
func evalStreamedMetered(meter *ra.Meter, e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	b := &streamBuilder{d: d, meter: meter}
	out := rel.NewRelation(e.Arity())
	var root *saCountNode
	if u, ok := e.(*Union); ok {
		// A root union's sink would be the result itself: drain both
		// inputs straight into the output relation, so the result is
		// built once and — per the MaxResident contract — not counted
		// as resident.
		lc, ln := b.cursor(u.L)
		rc, rn := b.cursor(u.E)
		root = &saCountNode{e: e, kids: []*saCountNode{ln, rn}}
		lg, rg := meter.Guard(lc), meter.Guard(rc)
		for t, ok := lg.Next(); ok; t, ok = lg.Next() {
			out.Add(t)
		}
		for t, ok := rg.Next(); ok; t, ok = rg.Next() {
			out.Add(t)
		}
		root.n = out.Len()
	} else {
		var cur ra.Cursor
		cur, root = b.cursor(e)
		cur = meter.Guard(cur)
		for t, ok := cur.Next(); ok; t, ok = cur.Next() {
			out.Add(t)
		}
	}
	tr := &Trace{}
	root.record(tr)
	tr.MaxResident = meter.Max()
	return out, tr
}

// saCountNode mirrors one occurrence of an expression node in the
// plan, collecting its emission count for the trace.
type saCountNode struct {
	e    Expr
	n    int
	kids []*saCountNode
}

// record appends the subtree's steps in post-order, matching the
// materialized evaluator's step order.
func (c *saCountNode) record(tr *Trace) {
	for _, k := range c.kids {
		k.record(tr)
	}
	tr.record(c.e, c.n)
}

// saCountCursor counts emissions into the plan's saCountNode.
type saCountCursor struct {
	in   ra.Cursor
	node *saCountNode
}

func (c *saCountCursor) Next() (rel.Tuple, bool) {
	t, ok := c.in.Next()
	if ok {
		c.node.n++
	}
	return t, ok
}

// streamBuilder translates an SA expression tree into a cursor plan.
type streamBuilder struct {
	d     rel.ReadStore
	meter *ra.Meter
}

func (b *streamBuilder) baseRel(n *Rel) rel.StoredRel {
	return rel.CheckView(b.d, n.Name, n.arity, "sa")
}

func (b *streamBuilder) cursor(e Expr) (ra.Cursor, *saCountNode) {
	node := &saCountNode{e: e}
	var cur ra.Cursor
	switch n := e.(type) {
	case *Rel:
		cur = b.meter.Guard(b.baseRel(n).Scan())
	case *Union:
		l, ln := b.cursor(n.L)
		r, rn := b.cursor(n.E)
		node.kids = []*saCountNode{ln, rn}
		cur = ra.NewUnionSinkCursor(l, r, n.Arity(), b.meter)
	case *Diff:
		l, ln := b.cursor(n.L)
		node.kids = []*saCountNode{ln}
		if base, ok := n.E.(*Rel); ok {
			// The subtrahend is a stored relation: probe it in place,
			// holding nothing.
			cur = ra.NewDiffCursor(l, nil, b.baseRel(base), n.Arity(), b.meter)
			node.kids = append(node.kids, &saCountNode{e: n.E})
		} else {
			rc, rn := b.cursor(n.E)
			cur = ra.NewDiffCursor(l, rc, nil, n.Arity(), b.meter)
			node.kids = append(node.kids, rn)
		}
	case *Project:
		in, kn := b.cursor(n.E)
		node.kids = []*saCountNode{kn}
		cols := n.Cols
		cur = ra.NewMapCursor(in, func(t rel.Tuple) rel.Tuple { return t.Project(cols) })
	case *Select:
		in, kn := b.cursor(n.E)
		node.kids = []*saCountNode{kn}
		i, op, j := n.I, n.Op, n.J
		cur = ra.NewFilterCursor(in, func(t rel.Tuple) bool { return op.Eval(t[i-1], t[j-1]) })
	case *SelectConst:
		in, kn := b.cursor(n.E)
		node.kids = []*saCountNode{kn}
		i, cv := n.I, n.C
		cur = ra.NewFilterCursor(in, func(t rel.Tuple) bool { return t[i-1].Equal(cv) })
	case *ConstTag:
		in, kn := b.cursor(n.E)
		node.kids = []*saCountNode{kn}
		tag := rel.Tuple{n.C}
		cur = ra.NewMapCursor(in, func(t rel.Tuple) rel.Tuple { return t.Concat(tag) })
	case *Semijoin:
		cur, node.kids = b.semijoin(n.L, n.Cond, n.E, true)
	case *Antijoin:
		cur, node.kids = b.semijoin(n.L, n.Cond, n.E, false)
	default:
		panic(fmt.Sprintf("sa: unknown expression %T", e))
	}
	return &saCountCursor{in: cur, node: node}, node
}

// semijoin builds the plan for l ⋉θ r (keep) or l ▷θ r (!keep). With
// equality atoms the right side is drained into a hash index keyed on
// interned value IDs; a pure-equality condition stores only the
// distinct key tuples (build-side compaction — the partner *set* is
// all a semijoin needs), a condition with residual atoms stores the
// full build tuples for per-candidate verification. Without equality
// atoms the right side is replayed per probe tuple — in place when it
// is a stored relation, else from a materialized buffer.
func (b *streamBuilder) semijoin(l Expr, cond ra.Cond, r Expr, keep bool) (ra.Cursor, []*saCountNode) {
	lc, ln := b.cursor(l)
	kids := []*saCountNode{ln}
	eqs := cond.EqPairs()
	if len(eqs) > 0 {
		rc, rn := b.cursor(r)
		kids = append(kids, rn)
		residual := make(ra.Cond, 0, len(cond))
		for _, at := range cond {
			if at.Op != ra.OpEq {
				residual = append(residual, at)
			}
		}
		return &hashSemijoinCursor{
			left: lc, buildC: rc, cond: cond, eqs: eqs,
			keysOnly: len(residual) == 0, keep: keep, meter: b.meter,
		}, kids
	}
	sj := &loopSemijoinCursor{left: lc, cond: cond, keep: keep, meter: b.meter}
	if base, ok := r.(*Rel); ok {
		// Replay the stored relation in place per probe tuple.
		sj.base = b.baseRel(base)
		kids = append(kids, &saCountNode{e: r})
	} else {
		rc, rn := b.cursor(r)
		sj.buildC = rc
		kids = append(kids, rn)
	}
	return sj, kids
}

// hashSemijoinCursor drains the build (right) side into a hash index
// on interned value IDs and streams the probe (left) side through the
// partner test. keysOnly compacts the build side to the distinct key
// tuples — the correct partner witness for equality-only conditions —
// so resident state is bounded by the number of distinct join keys,
// not build tuples. Key-tuple equality is confirmed on every bucket
// candidate, so hash collisions never produce false partners.
type hashSemijoinCursor struct {
	left     ra.Cursor
	buildC   ra.Cursor
	cond     ra.Cond
	eqs      [][2]int
	keysOnly bool
	keep     bool
	meter    *ra.Meter

	opened bool
	keyer  *ra.JoinKeyer
	index  map[uint64][]rel.Tuple // key hash -> key tuples (keysOnly) or full build tuples
	held   int
}

// keyTuple projects the equality columns of t for the given side.
func (c *hashSemijoinCursor) keyTuple(t rel.Tuple, side int) rel.Tuple {
	k := make(rel.Tuple, len(c.eqs))
	for i, p := range c.eqs {
		k[i] = t[p[side]-1]
	}
	return k
}

func (c *hashSemijoinCursor) Next() (rel.Tuple, bool) {
	if !c.opened {
		c.opened = true
		c.keyer = ra.NewJoinKeyer(c.eqs)
		c.index = make(map[uint64][]rel.Tuple)
		for t, ok := c.buildC.Next(); ok; t, ok = c.buildC.Next() {
			h, _ := c.keyer.Key(t, 1)
			if c.keysOnly {
				kt := c.keyTuple(t, 1)
				dup := false
				for _, seen := range c.index[h] {
					if seen.Equal(kt) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				c.index[h] = append(c.index[h], kt)
			} else {
				c.index[h] = append(c.index[h], t)
			}
			c.meter.Grow(1)
			c.held++
		}
	}
	for {
		a, ok := c.left.Next()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.index = nil
			return nil, false
		}
		partner := false
		if h, ok := c.keyer.Key(a, 0); ok {
			if c.keysOnly {
				ka := c.keyTuple(a, 0)
				for _, kt := range c.index[h] {
					if kt.Equal(ka) {
						partner = true
						break
					}
				}
			} else {
				for _, b := range c.index[h] {
					if c.cond.Holds(a, b) {
						partner = true
						break
					}
				}
			}
		}
		if partner == c.keep {
			return a, true
		}
	}
}

// loopSemijoinCursor handles semijoins without equality atoms: the
// right side is replayed per probe tuple — in place via a resettable
// cursor when it is a stored relation (zero resident state), otherwise
// from a materialized buffer.
type loopSemijoinCursor struct {
	left   ra.Cursor
	buildC ra.Cursor     // right child; nil when base is set
	base   rel.StoredRel // stored right relation, replayed in place
	cond   ra.Cond
	keep   bool
	meter  *ra.Meter

	opened  bool
	right   []rel.Tuple
	baseCur rel.TupleCursor
	held    int
}

func (c *loopSemijoinCursor) Next() (rel.Tuple, bool) {
	if !c.opened {
		c.opened = true
		if c.base != nil {
			c.baseCur = c.base.Scan()
		} else {
			for t, ok := c.buildC.Next(); ok; t, ok = c.buildC.Next() {
				c.right = append(c.right, t)
				c.meter.Grow(1)
				c.held++
			}
		}
	}
	for {
		a, ok := c.left.Next()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.right = nil
			return nil, false
		}
		partner := false
		if c.baseCur != nil {
			c.baseCur.Reset()
			for b, ok := c.baseCur.Next(); ok; b, ok = c.baseCur.Next() {
				if c.cond.Holds(a, b) {
					partner = true
					break
				}
			}
		} else {
			for _, b := range c.right {
				if c.cond.Holds(a, b) {
					partner = true
					break
				}
			}
		}
		if partner == c.keep {
			return a, true
		}
	}
}
