package plan

import (
	"context"
	"fmt"

	"radiv/internal/division"
	"radiv/internal/exec"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/xra"
)

// This file is the executor: the one place a cursor tree is built and
// run. A plan — whatever algebra it came from, rewritten or not — is a
// tree of IR nodes; builder.batches turns it node by node into the
// batch operator cursors of this package — op_filter.go (selection,
// constant selection and tagging, projection, the dedup filter),
// op_set.go (the union and difference sinks), op_join.go (joins,
// semijoins, antijoins) and op_gamma.go (γ) — all charging one resident
// meter (meter.go), and Plan.run drains the root into the result. Every
// operator reads and writes IDs of one query dictionary, the result's:
// it is based on the store's (rel.NewRelationOver), whose IDs are its
// IDs, and the values the query creates go into its own tail. So no
// operator translates, the store is never written, and the result keeps
// the rows' IDs; it reads the store's dictionary, so no goroutine may
// write the store while another reads a result. The materialized Eval
// of each algebra is the semantics this is tested against, not a second
// way to run a plan.

// Options tunes compilation and execution.
type Options struct {
	// Optimize runs the rewrite rule pipeline. Off, the plan executes
	// the expression as written (through the same executor and
	// canonical emission, so optimized and unoptimized runs are
	// byte-comparable).
	Optimize bool
	// Vectorize is ignored; kept until the next benchmark-only PR
	// removes it from bench/layers.go. Every plan runs batch-native.
	Vectorize bool
	// BatchSize is the row capacity of the batches operators exchange
	// (0 = rel.BatchCap).
	BatchSize int
	// MaxResident caps the plan's resident-tuple count (Trace.MaxResident)
	// on the governed entry points (ExecuteContext, ExecuteTracedContext);
	// 0 means unlimited, and Execute/ExecuteTraced ignore it. The guards
	// check it before each pull, so a query overshoots by at most one
	// batch of growth before it aborts.
	MaxResident int
}

// Engine labels a plan with the smallest algebra that expresses it. It
// selects nothing — every plan runs on the same executor — but it is
// what the paper's laws speak about: a plan labelled sa has linear flow
// by Definition 2, and linearization succeeded exactly when an RA query
// comes out labelled sa.
type Engine string

const (
	// EngineRA labels a plan of pure RA operators.
	EngineRA Engine = "ra"
	// EngineSA labels a plan the semijoin algebra expresses.
	EngineSA Engine = "sa"
	// EngineXRA labels a plan the γ-extended algebra expresses.
	EngineXRA Engine = "xra"
	// EngineMixed labels a plan mixing operators no single algebra
	// holds (a join next to a semijoin, say).
	EngineMixed Engine = "mixed"
)

// Plan is a compiled, store-bound query plan. Compilation binds the
// store because the rewrite guards price the actual database (and the
// division rule's exactness guard inspects it); execute a fresh
// compile after the store changes.
type Plan struct {
	d       rel.ReadStore
	opts    Options
	root    *Node
	firings []Firing
	engine  Engine
}

// Trace is what one execution measured. Its steps are the materialized
// evaluators' record (ra.Trace, post-order, labelled by Node.String()),
// but its sizes are flows, not cardinalities: a dedup-deferring
// projection counts the duplicates it emits, and a stored relation
// consumed in place (the subtrahend of a difference, the right side of
// a θ-only join or semijoin, whose ID columns are its build table)
// counts zero, because nothing flows through the operator graph for
// it. So MaxIntermediate is the maximum emission count — the paper's
// intermediate-result measure, which ST5 watches drop from quadratic to
// linear under the rewrite — and TotalTuples the summed emission count.
type Trace struct {
	ra.Trace
	// MaxResident is the peak number of tuples simultaneously held in
	// operator state — join build tables, union and difference sinks,
	// dedup filters, γ accumulators — across the whole plan. The result
	// relation is not counted: every evaluator must hold its output, so
	// MaxResident measures auxiliary state only.
	MaxResident int
}

// Compile validates the RA expression and compiles its IR form.
func Compile(e ra.Expr, d rel.ReadStore, opts Options) (*Plan, error) {
	if err := ra.Validate(e); err != nil {
		return nil, fmt.Errorf("plan: invalid expression: %w", err)
	}
	return CompileIR(FromRA(e), d, opts), nil
}

// CompileIR optionally rewrites an IR tree (FromRA, FromSA, FromXRA, or
// the N* constructors, which validate as they build) and binds it to
// the store. The returned plan is immutable and reusable (each Execute
// streams afresh), but bound to d's statistics.
func CompileIR(root *Node, d rel.ReadStore, opts Options) *Plan {
	p := &Plan{d: d, opts: opts, root: root, engine: EngineMixed}
	if opts.Optimize {
		p.root, p.firings = optimize(d, p.root)
	}
	if _, ok := ToRA(p.root); ok {
		p.engine = EngineRA
	} else if _, ok := ToSA(p.root); ok {
		p.engine = EngineSA
	} else if _, ok := ToXRA(p.root); ok {
		p.engine = EngineXRA
	}
	return p
}

// Engine returns the plan's algebra label.
func (p *Plan) Engine() Engine { return p.engine }

// Firings returns the recorded rule applications.
func (p *Plan) Firings() []Firing { return append([]Firing(nil), p.firings...) }

// Root returns the (rewritten) plan tree.
func (p *Plan) Root() *Node { return p.root }

// Execute runs the plan and returns a fresh result relation, owned by
// the caller, built in canonical sorted tuple order — rewrites may
// legitimately permute an executor's natural emission order, so the
// plan layer fixes the order once for optimized and unoptimized runs
// alike.
func (p *Plan) Execute() *rel.Relation {
	res, _ := p.run(nil)
	return res
}

// ExecuteContext is the governed Execute: one governor spans the
// whole plan, honoring ctx cancellation and deadlines at every pull
// boundary, enforcing Options.MaxResident and converting internal
// panics into typed errors. On error the relation is nil.
func (p *Plan) ExecuteContext(ctx context.Context) (*rel.Relation, error) {
	res, _, err := p.ExecuteTracedContext(ctx)
	return res, err
}

// ExecuteTraced runs the plan and returns the canonical result plus
// the trace.
func (p *Plan) ExecuteTraced() (*rel.Relation, *Trace) { return p.run(nil) }

// ExecuteTracedContext is the governed ExecuteTraced, under one
// governor like ExecuteContext. On error the relation and trace are
// nil.
func (p *Plan) ExecuteTracedContext(ctx context.Context) (*rel.Relation, *Trace, error) {
	res, tr, err := func() (res *rel.Relation, tr *Trace, err error) {
		g := exec.NewGovernor(ctx, p.opts.MaxResident)
		defer g.Recover(&err)
		r, t := p.run(g)
		return r, t, nil
	}()
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// run builds the plan's cursor tree over the result's dictionary,
// drains the root into the result and puts its rows in canonical
// order, threading the governor (nil = ungoverned: no guards, no
// overhead) through the meter so every leaf scan and the root drain
// check it once per batch.
func (p *Plan) run(g *exec.Governor) (*rel.Relation, *Trace) {
	m := &meter{gov: g}
	capacity := p.opts.BatchSize
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	res := rel.NewRelationOver(p.root.arity, p.d.Dict())
	b := &builder{d: p.d, meter: m, capacity: capacity, dict: res.Interner()}
	var root *countNode
	if p.root.Kind == KUnion {
		// A root union's sink would be the result itself: drain both
		// inputs straight into the result instead, so it is built once
		// and — per the MaxResident contract — not counted as resident.
		l, ln := b.batches(p.root.Kids[0])
		r, rn := b.batches(p.root.Kids[1])
		l, r = m.guardBatches(l), m.guardBatches(r)
		root = &countNode{n: p.root, kids: []*countNode{ln, rn}}
		drainBatches(l, res)
		drainBatches(r, res)
		root.size = res.Len()
	} else {
		var cur rel.BatchCursor
		cur, root = b.batches(p.root)
		drainBatches(m.guardBatches(cur), res)
	}
	tr := &Trace{}
	root.record(tr)
	tr.MaxResident = m.max
	// Sorted tuple order: order-stability across rewrites, stores and
	// batch sizes, with no row decoded and no value re-interned.
	res.Sort()
	return res, tr
}

// matchGammaDivision recognizes the IR of xra.ContainmentDivision and
// xra.EqualityDivision over two stored relations: the γ-divisions the
// executor runs as one operator (aggregateDivision).
func matchGammaDivision(n *Node) (rName, sName string, sem division.Semantics, ok bool) {
	if n.Kind != KProject || n.Kids[0].Kind != KJoin {
		return "", "", 0, false
	}
	// Both start γ_{1,count(2)}(R ⋈_{2=1} S) on the left of the top
	// join, the equality one a join further down.
	pg, div := n.Kids[0].Kids[0], xra.ContainmentDivision
	if pg.Kind == KJoin {
		pg, sem, div = pg.Kids[0], division.Equality, xra.EqualityDivision
	}
	if pg.Kind != KGamma || pg.Kids[0].Kind != KJoin {
		return "", "", 0, false
	}
	rn, sn := pg.Kids[0].Kids[0], pg.Kids[0].Kids[1]
	if rn.Kind != KRel || sn.Kind != KRel || !Equal(n, FromXRA(div(rn.Name, sn.Name))) {
		return "", "", 0, false
	}
	return rn.Name, sn.Name, sem, true
}

// aggregateDivision builds n, a γ-division of two stored relations
// (matchGammaDivision), as one operator over division.Count: S's and
// R's scans feed the kernel through the meter's guards, so a governed
// run checks R per batch and a MaxResident budget trips as groups
// appear. On an empty S it emits ∅, as the γ-expression does. Every
// node of the subtree keeps its own count node, set to that node's
// cardinality from the kernel's counts, so the trace is the one the
// subtree's operators would have recorded one by one.
func (b *builder) aggregateDivision(n *Node, rName, sName string, sem division.Semantics) (rel.BatchCursor, *countNode) {
	c := &aggDivCursor{sem: sem, meter: b.meter, capacity: b.capacity,
		r: b.meter.guardBatches(rel.CheckView(b.d, rName, 2, "plan").BatchScanSized(b.capacity)),
		s: b.meter.guardBatches(rel.CheckView(b.d, sName, 1, "plan").BatchScanSized(b.capacity))}
	var mirror func(n *Node) *countNode
	mirror = func(n *Node) *countNode {
		node := &countNode{n: n}
		for _, k := range n.Kids {
			node.kids = append(node.kids, mirror(k))
		}
		c.nodes = append(c.nodes, node)
		return node
	}
	root := mirror(n)
	return &countCursor{in: c, node: root}, root
}

// aggDivCursor runs division.Count on its first pull, then emits the
// qualifying groups as view batches over the kernel's ID list, holding
// the kernel's charge on the meter until the last one is out.
type aggDivCursor struct {
	r, s     rel.BatchCursor
	sem      division.Semantics
	meter    *meter
	capacity int
	nodes    []*countNode // the subtree's count nodes in post-order

	out      [][]uint32 // one column of group IDs; nil until run
	view     rel.Batch
	at, held int
}

func (c *aggDivCursor) NextBatch() (*rel.Batch, bool) {
	if c.out == nil {
		k := division.Count(c.r, c.s, c.sem, c.meter.grow)
		// Post-order, root excluded (its flow is counted as it leaves):
		// R, S, R ⋈ S, its γ, S, γ(S), the top join; under Equality R,
		// γ(R) and the join of the two γs come before the second S.
		q := len(k.Qualified)
		sizes := []int{k.Rows, k.Divisor, k.Matched, k.MatchedGroups, k.Divisor, 1, q}
		if c.sem == division.Equality {
			sizes = []int{k.Rows, k.Divisor, k.Matched, k.MatchedGroups, k.Rows, k.Groups, k.Pure, k.Divisor, 1, q}
		}
		for i, size := range sizes {
			c.nodes[i].size = size
		}
		// The groups are IDs of R's scan, the store's dictionary: the
		// query dictionary's base.
		c.out, c.held = [][]uint32{k.Qualified}, k.Divisor+k.Groups
		c.view.MakeView(c.out, nil)
	}
	if c.at == len(c.out[0]) {
		c.meter.release(c.held)
		c.held = 0
		return nil, false
	}
	hi := min(c.at+c.capacity, len(c.out[0]))
	c.view.SliceView(c.out, c.at, hi)
	c.at = hi
	return &c.view, true
}

// countNode mirrors one occurrence of a plan node, collecting its
// emission count. A subplan shared between two places in the tree gets
// two countNodes, exactly as the materialized evaluators evaluate (and
// record) it twice.
type countNode struct {
	n    *Node
	size int
	kids []*countNode
}

// record appends the subtree's steps in post-order, matching the
// materialized evaluators' step order.
func (c *countNode) record(tr *Trace) {
	for _, k := range c.kids {
		k.record(tr)
	}
	tr.Record(c.n.String(), c.size)
}

// countCursor counts rows flowing out of an operator into the plan's
// countNode.
type countCursor struct {
	in   rel.BatchCursor
	node *countNode
}

func (c *countCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	if ok {
		c.node.size += b.Len()
	}
	return b, ok
}

// mayEmitDuplicates reports whether the cursor tree for n can deliver
// the same tuple more than once: only dedup-deferring projections
// create duplicates, blocking sinks (union, γ) and stored relations
// are duplicate-free, filters and semijoins pass their left input's
// property through (a difference materializes only its subtrahend),
// and joins pair distinct inputs into distinct outputs. γ's count(*)
// uses it to decide whether exactness requires full-row
// deduplication.
func mayEmitDuplicates(n *Node) bool {
	switch n.Kind {
	case KRel, KUnion, KGamma:
		return false
	case KDiff, KSemijoin, KAntijoin:
		return mayEmitDuplicates(n.Kids[0])
	case KProject:
		return true
	case KSelect, KSelectConst, KConstTag:
		return mayEmitDuplicates(n.Kids[0])
	case KJoin:
		return mayEmitDuplicates(n.Kids[0]) || mayEmitDuplicates(n.Kids[1])
	}
	return true
}

// builder translates a plan tree into a batch-cursor tree.
type builder struct {
	d        rel.ReadStore
	meter    *meter
	capacity int
	dict     *rel.Interner // the query dictionary, the result's
	// probeBucket carries consumer context one level down the
	// recursion: when a join builds its probe (left) input, it holds
	// the estimated per-probe candidate scan, so a projection directly
	// below can weigh the dedup filter (dedupProjection). Zero
	// elsewhere.
	probeBucket float64
}

// baseRel resolves a relation-name node against the store, with the
// same arity check the materialized evaluators perform. For the
// in-memory database the view is the stored *rel.Relation itself;
// another backend answers probes and scans through its own view.
func (b *builder) baseRel(n *Node) rel.StoredRel {
	return rel.CheckView(b.d, n.Name, n.arity, "plan")
}

// inPlace builds the right input of a difference, a θ-only join or a
// θ-only semijoin under node. A stored relation is handed to the
// operator as a view and consumed in place: it gets a count node (the
// materialized evaluators record it) but no cursor, so its flow is
// zero. Anything else is built as a cursor. Exactly one of the results
// is non-nil.
func (b *builder) inPlace(sub *Node, node *countNode) (rel.BatchCursor, rel.StoredRel) {
	if sub.Kind == KRel {
		node.kids = append(node.kids, &countNode{n: sub})
		return nil, b.baseRel(sub)
	}
	rc, rn := b.batches(sub)
	node.kids = append(node.kids, rn)
	return rc, nil
}

// batches builds the cursor for n and its count node. Every operator
// is filled in here from its node, which validated its columns and
// condition when it was built (the N* constructors): the one place
// that picks an operator's strategy — the key columns of a join's or
// semijoin's build table, and whether a right input is consumed in
// place or built (inPlace; an equality-keyed build side is always
// built).
func (b *builder) batches(n *Node) (rel.BatchCursor, *countNode) {
	node := &countNode{n: n}
	var cur rel.BatchCursor
	dedup := false
	// Consume the consumer context: it applies to this node only.
	bucket := b.probeBucket
	b.probeBucket = 0
	switch n.Kind {
	case KRel:
		cur = b.meter.guardBatches(b.baseRel(n).BatchScanSized(b.capacity))
	case KUnion:
		l, ln := b.batches(n.Kids[0])
		r, rn := b.batches(n.Kids[1])
		node.kids = []*countNode{ln, rn}
		cur = &unionCursor{l: l, r: r, arity: n.arity, meter: b.meter, capacity: b.capacity}
	case KDiff:
		l, ln := b.batches(n.Kids[0])
		node.kids = []*countNode{ln}
		rc, stored := b.inPlace(n.Kids[1], node)
		cur = &diffCursor{filter: filter{in: l}, buildC: rc, stored: stored, arity: n.arity, meter: b.meter}
	case KProject:
		if rName, sName, sem, ok := matchGammaDivision(n); ok {
			return b.aggregateDivision(n, rName, sName, sem)
		}
		dedup = dedupProjection(b.d, n, bucket)
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = &projectCursor{in: in, cols: n.Cols}
	case KSelect:
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = &selectCursor{filter: filter{in: in}, i: n.I - 1, op: n.Op, j: n.J - 1, dict: b.dict}
	case KSelectConst:
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = &selectConstCursor{filter: filter{in: in}, i: n.I - 1, id: b.dict.Intern(n.C)}
	case KConstTag:
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = &tagCursor{in: in, id: b.dict.Intern(n.C)}
	case KJoin, KSemijoin, KAntijoin:
		if n.Kind == KJoin {
			b.probeBucket = joinBucket(b.d, n)
		}
		l, ln := b.batches(n.Kids[0])
		node.kids = []*countNode{ln}
		side := buildSide{equiKeys: splitEquiKeys(n.Cond), meter: b.meter, capacity: b.capacity, dict: b.dict}
		if len(side.probeCols) > 0 {
			var rn *countNode
			side.buildC, rn = b.batches(n.Kids[1])
			node.kids = append(node.kids, rn)
		} else {
			side.buildC, side.stored = b.inPlace(n.Kids[1], node)
		}
		if n.Kind == KJoin {
			cur = &joinCursor{left: l, buildSide: side}
		} else {
			cur = &semijoinCursor{filter: filter{in: l}, buildSide: side, keep: n.Kind == KSemijoin}
		}
	case KGamma:
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = &gammaCursor{in: in, groupCols: n.Cols, countCol: n.CountCol, inputArity: n.Kids[0].arity,
			dedupAll: n.CountCol == 0 && mayEmitDuplicates(n.Kids[0]), meter: b.meter, capacity: b.capacity, dict: b.dict}
	default:
		panic(fmt.Sprintf("plan: unknown kind %d", n.Kind))
	}
	counted := &countCursor{in: cur, node: node}
	if dedup {
		// The filter sits outside the count, so the node's flow number
		// still reports what the operator emitted (duplicates included)
		// and only the downstream consumers see the deduplicated stream.
		return &dedupCursor{filter: filter{in: counted}, arity: n.arity, meter: b.meter}, node
	}
	return counted, node
}
