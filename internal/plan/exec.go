package plan

import (
	"context"
	"fmt"

	"radiv/internal/division"
	"radiv/internal/exec"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/xra"
)

// This file is the executor: the one place a cursor tree is built and
// run. A plan — whatever algebra it came from, rewritten or not — is a
// tree of IR nodes; builder.batches turns it node by node into the
// batch operator cursors of internal/ra (selection, projection, sinks,
// joins, the dedup filter), internal/sa (semijoin, antijoin) and
// internal/xra (γ), all charging one resident meter, and Plan.run
// drains the root into the result. The materialized Eval of each
// algebra is the semantics this is tested against, not a second way to
// run a plan.

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
	// Limits bounds the query's resource use on the governed entry
	// points (ExecuteContext, ExecuteTracedContext). Zero values mean
	// unlimited; the legacy Execute/ExecuteTraced entries ignore it.
	Limits exec.Limits
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

// Trace is what one execution measured. Its step order is the
// materialized evaluators' (post-order), but its sizes are flows, not
// cardinalities: a dedup-deferring projection counts the duplicates it
// emits, and a stored relation consumed in place (the subtrahend of a
// difference, the replayed side of a θ-only join or semijoin) counts
// zero, because nothing flows through the operator graph for it.
type Trace struct {
	// Steps lists each executed operator with its emission count, in
	// post-order.
	Steps []Step
	// MaxIntermediate is the maximum emission count over all
	// operators — the paper's intermediate-result measure, which ST5
	// watches drop from quadratic to linear under the rewrite.
	MaxIntermediate int
	// TotalTuples is the summed emission count.
	TotalTuples int
	// MaxResident is the peak number of tuples simultaneously held in
	// operator state — join build tables, union and difference sinks,
	// dedup filters, γ accumulators — across the whole plan. The result
	// relation is not counted: every evaluator must hold its output, so
	// MaxResident measures auxiliary state only.
	MaxResident int
}

// Step is one operator's trace record.
type Step struct {
	Label string
	Size  int
}

func (tr *Trace) record(label string, size int) {
	tr.Steps = append(tr.Steps, Step{Label: label, Size: size})
	if size > tr.MaxIntermediate {
		tr.MaxIntermediate = size
	}
	tr.TotalTuples += size
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
	return canonical(res)
}

// ExecuteContext is the governed Execute: one governor spans the
// whole plan, honoring ctx cancellation and deadlines at every pull
// boundary, enforcing Options.Limits, converting internal panics into
// typed errors, and releasing every pooled batch on every abort path.
// On error the relation is nil.
func (p *Plan) ExecuteContext(ctx context.Context) (*rel.Relation, error) {
	res, _, err := p.ExecuteTracedContext(ctx)
	return res, err
}

// ExecuteTraced runs the plan and returns the canonical result plus
// the trace.
func (p *Plan) ExecuteTraced() (*rel.Relation, *Trace) {
	res, tr := p.run(nil)
	return canonical(res), tr
}

// ExecuteTracedContext is the governed ExecuteTraced, under one
// governor like ExecuteContext. On error the relation and trace are
// nil.
func (p *Plan) ExecuteTracedContext(ctx context.Context) (*rel.Relation, *Trace, error) {
	res, tr, err := func() (res *rel.Relation, tr *Trace, err error) {
		g := exec.NewGovernor(ctx, p.opts.Limits)
		defer g.Recover(&err)
		r, t := p.run(g)
		return canonical(r), t, nil
	}()
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// run builds the plan's cursor tree and drains it into a fresh result
// relation, threading the governor (nil = ungoverned: no guards, no
// overhead) through the meter so every leaf scan and the root drain
// check it once per batch.
func (p *Plan) run(g *exec.Governor) (*rel.Relation, *Trace) {
	m := ra.NewGovernedMeter(g)
	capacity := p.opts.BatchSize
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	b := &builder{d: p.d, meter: m, capacity: capacity}
	out := rel.NewRelationSized(p.root.arity, sinkHint(p.d, p.root))
	var root *countNode
	if p.root.Kind == KUnion {
		// A root union's sink would be the result itself: drain both
		// inputs straight into the output relation instead, so the
		// result is built once and — per the MaxResident contract — not
		// counted as resident.
		l, ln := b.batches(p.root.Kids[0])
		r, rn := b.batches(p.root.Kids[1])
		l, r = m.GuardBatches(l), m.GuardBatches(r)
		root = &countNode{n: p.root, kids: []*countNode{ln, rn}}
		ra.DrainBatches(l, out)
		ra.DrainBatches(r, out)
		root.size = out.Len()
	} else {
		var cur ra.BatchCursor
		cur, root = b.batches(p.root)
		ra.DrainBatches(m.GuardBatches(cur), out)
	}
	tr := &Trace{}
	root.record(tr)
	tr.MaxResident = m.Max()
	return out, tr
}

// canonical rebuilds a result in sorted tuple order. The copy is
// cheap relative to evaluation and buys order-stability across
// rewrites, shard counts and batch sizes.
func canonical(r *rel.Relation) *rel.Relation {
	out := rel.NewRelationSized(r.Arity(), r.Len())
	for _, t := range r.Sorted() {
		out.Add(t)
	}
	return out
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
func (b *builder) aggregateDivision(n *Node, rName, sName string, sem division.Semantics) (ra.BatchCursor, *countNode) {
	c := &aggDivCursor{sem: sem, meter: b.meter, capacity: b.capacity,
		r: b.meter.GuardBatches(rel.CheckView(b.d, rName, 2, "plan").BatchScanSized(b.capacity)),
		s: b.meter.GuardBatches(rel.CheckView(b.d, sName, 1, "plan").BatchScanSized(b.capacity))}
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
	r, s     ra.BatchCursor
	sem      division.Semantics
	meter    *ra.Meter
	capacity int
	nodes    []*countNode // the subtree's count nodes in post-order

	out      [][]uint32 // one column of group IDs; nil until run
	view     rel.Batch
	at, held int
}

func (c *aggDivCursor) NextBatch() (*rel.Batch, bool) {
	if c.out == nil {
		k := division.Count(c.r, c.s, c.sem, c.meter.Grow)
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
		c.out, c.held = [][]uint32{k.Qualified}, k.Divisor+k.Groups
		c.view.MakeView(c.out, k.Dict)
	}
	if c.at == len(c.out[0]) {
		c.meter.Release(c.held)
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
	tr.record(c.n.String(), c.size)
}

// countCursor counts rows flowing out of an operator into the plan's
// countNode.
type countCursor struct {
	in   ra.BatchCursor
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
	meter    *ra.Meter
	capacity int
	// probeBucket carries consumer context one level down the
	// recursion: when a join builds its probe (left) input, it holds
	// the estimated per-probe candidate scan, so a projection directly
	// below can weigh the dedup filter (dedupProjection). Zero
	// elsewhere.
	probeBucket float64
}

// baseRel resolves a relation-name node against the store, with the
// same arity check the materialized evaluators perform. For the
// in-memory database the view is the stored *rel.Relation itself; a
// sharded store routes probes and scans through its placement log.
func (b *builder) baseRel(n *Node) rel.StoredRel {
	return rel.CheckView(b.d, n.Name, n.arity, "plan")
}

// batches builds the cursor for n and its count node. A stored
// relation on the right of a difference, a θ-only join or a θ-only
// semijoin is handed to the operator as a view and consumed in place:
// it gets a count node (the materialized evaluators record it) but no
// cursor, so its flow is zero.
func (b *builder) batches(n *Node) (ra.BatchCursor, *countNode) {
	node := &countNode{n: n}
	var cur ra.BatchCursor
	dedup := false
	// Consume the consumer context: it applies to this node only.
	bucket := b.probeBucket
	b.probeBucket = 0
	switch n.Kind {
	case KRel:
		cur = b.meter.GuardBatches(b.baseRel(n).BatchScanSized(b.capacity))
	case KUnion:
		l, ln := b.batches(n.Kids[0])
		r, rn := b.batches(n.Kids[1])
		node.kids = []*countNode{ln, rn}
		cur = ra.NewUnionSinkBatchCursor(l, r, n.arity, b.meter, b.capacity)
	case KDiff:
		l, ln := b.batches(n.Kids[0])
		node.kids = []*countNode{ln}
		if sub := n.Kids[1]; sub.Kind == KRel {
			cur = ra.NewDiffBatchCursor(l, nil, b.baseRel(sub), n.arity, b.meter)
			node.kids = append(node.kids, &countNode{n: sub})
		} else {
			rc, rn := b.batches(sub)
			cur = ra.NewDiffBatchCursor(l, rc, nil, n.arity, b.meter)
			node.kids = append(node.kids, rn)
		}
	case KProject:
		if rName, sName, sem, ok := matchGammaDivision(n); ok {
			return b.aggregateDivision(n, rName, sName, sem)
		}
		dedup = dedupProjection(b.d, n, bucket)
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = ra.NewProjectBatchCursor(in, n.Cols)
	case KSelect:
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = ra.NewSelectBatchCursor(in, n.I, n.Op, n.J)
	case KSelectConst:
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = ra.NewSelectConstBatchCursor(in, n.I, n.C)
	case KConstTag:
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = ra.NewConstTagBatchCursor(in, n.C)
	case KJoin:
		b.probeBucket = joinBucket(b.d, n)
		l, ln := b.batches(n.Kids[0])
		node.kids = []*countNode{ln}
		if len(n.Cond.EqPairs()) > 0 {
			rc, rn := b.batches(n.Kids[1])
			node.kids = append(node.kids, rn)
			cur = ra.NewHashJoinBatchCursor(l, rc, n.Cond, b.meter, b.capacity)
		} else if sub := n.Kids[1]; sub.Kind == KRel {
			node.kids = append(node.kids, &countNode{n: sub})
			cur = ra.NewLoopJoinBatchCursor(l, nil, b.baseRel(sub), n.Cond, b.meter, b.capacity)
		} else {
			rc, rn := b.batches(sub)
			node.kids = append(node.kids, rn)
			cur = ra.NewLoopJoinBatchCursor(l, rc, nil, n.Cond, b.meter, b.capacity)
		}
	case KSemijoin, KAntijoin:
		keep := n.Kind == KSemijoin
		l, ln := b.batches(n.Kids[0])
		node.kids = []*countNode{ln}
		if sub := n.Kids[1]; len(n.Cond.EqPairs()) == 0 && sub.Kind == KRel {
			node.kids = append(node.kids, &countNode{n: sub})
			cur = sa.NewSemijoinBatchCursor(l, nil, b.baseRel(sub), n.Cond, keep, b.meter, b.capacity)
		} else {
			rc, rn := b.batches(sub)
			node.kids = append(node.kids, rn)
			cur = sa.NewSemijoinBatchCursor(l, rc, nil, n.Cond, keep, b.meter, b.capacity)
		}
	case KGamma:
		in, kn := b.batches(n.Kids[0])
		node.kids = []*countNode{kn}
		cur = xra.NewGammaBatchCursor(in, n.Cols, n.CountCol, n.Kids[0].arity, mayEmitDuplicates(n.Kids[0]), b.meter, b.capacity)
	default:
		panic(fmt.Sprintf("plan: unknown kind %d", n.Kind))
	}
	counted := &countCursor{in: cur, node: node}
	if dedup {
		// The filter sits outside the count, so the node's flow number
		// still reports what the operator emitted (duplicates included)
		// and only the downstream consumers see the deduplicated stream.
		return ra.NewDedupBatchCursor(counted, n.arity, b.meter), node
	}
	return counted, node
}
