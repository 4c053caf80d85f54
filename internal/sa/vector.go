package sa

// This file implements the vectorized executor for the semijoin
// algebra: the same cursor plans as stream.go, but operators exchange
// columnar rel.Batch blocks through ra's exported batch surface
// (ScanBatches, the batch operator constructors, FilterBatch, IDSet,
// ColStore). The generic operators — selection, constant selection,
// tagging, projection, union, difference — are ra's batch cursors
// verbatim; what this file adds are the algebra-specific ones, the
// semijoin and antijoin:
//
//   - pure-equality conditions build a distinct-key table on interned
//     IDs (ra.IDSet keyed through the equality columns), so resident
//     state is bounded by the number of distinct join keys and a probe
//     is a translation-cache load plus an integer chain walk;
//   - conditions with residual atoms materialize the build side into
//     per-column ID stores (ra.ColStore) indexed by ra.PackKey over
//     the equality columns, verifying residual atoms per candidate;
//   - theta-only conditions replay the right side per probe row — in
//     place over the in-memory relation's ID columns (nothing held),
//     otherwise from a materialized, metered columnar copy (the same
//     deliberate resident-parity exception ra's vectorized theta join
//     documents).
//
// In every strategy the probe side streams through selection-vector
// compaction (ra.FilterBatch), so emission order — and with it the
// byte-identity and trace-parity contracts of the streaming executor —
// is preserved exactly. Meter accounting matches the tuple cursors
// operator for operator: distinct key rows, full build rows, or
// nothing, released at probe exhaustion.

import (
	"context"
	"fmt"

	"radiv/internal/exec"
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// EvalVectorized evaluates the expression with the vectorized executor
// and returns the result relation, always a fresh relation owned by
// the caller. Results are byte-identical — same tuples, same insertion
// order — to EvalStreamed on any backend holding the same data.
func EvalVectorized(e Expr, d rel.ReadStore) *rel.Relation {
	res, _ := EvalVectorizedTraced(e, d)
	return res
}

// EvalVectorizedTraced is EvalVectorized with the trace: the same flow
// counts, step order and MaxResident EvalStreamedTraced reports.
func EvalVectorizedTraced(e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	return EvalVectorizedTracedSized(e, d, 0)
}

// EvalVectorizedTracedSized is EvalVectorizedTraced at an explicit
// batch row capacity (0 means rel.BatchCap).
func EvalVectorizedTracedSized(e Expr, d rel.ReadStore, batchSize int) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("sa: invalid expression: " + err.Error())
	}
	return evalVectorizedMetered(&ra.Meter{}, e, d, batchSize)
}

// EvalVectorizedContext is the governed vectorized entry point: the
// columnar sibling of EvalStreamedContext, at an explicit batch row
// capacity (0 means rel.BatchCap).
func EvalVectorizedContext(ctx context.Context, e Expr, d rel.ReadStore, batchSize int, lim exec.Limits) (*rel.Relation, *Trace, error) {
	if verr := Validate(e); verr != nil {
		return nil, nil, fmt.Errorf("sa: invalid expression: %w", verr)
	}
	res, tr, err := func() (res *rel.Relation, tr *Trace, err error) {
		g := exec.NewGovernor(ctx, lim)
		defer g.Recover(&err)
		res, tr = evalVectorizedMetered(ra.NewGovernedMeter(g), e, d, batchSize)
		return res, tr, nil
	}()
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// EvalVectorizedGoverned runs the vectorized executor under a caller-
// supplied governor (the plan layer's shared-governor hook). The
// caller owns the boundary: it must recover with Governor.Recover. A
// nil governor is exactly the legacy ungoverned path.
func EvalVectorizedGoverned(g *exec.Governor, e Expr, d rel.ReadStore, batchSize int) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("sa: invalid expression: " + err.Error())
	}
	return evalVectorizedMetered(ra.NewGovernedMeter(g), e, d, batchSize)
}

// evalVectorizedMetered is the vectorized executor core shared by the
// legacy and governed entries.
func evalVectorizedMetered(meter *ra.Meter, e Expr, d rel.ReadStore, batchSize int) (*rel.Relation, *Trace) {
	capacity := batchSize
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	b := &vecBuilder{d: d, meter: meter, capacity: capacity}
	out := rel.NewRelation(e.Arity())
	var root *saCountNode
	if u, ok := e.(*Union); ok {
		// Mirror the tuple executor's root-union special case: both
		// inputs drain straight into the result, which is not resident.
		lc, ln := b.batches(u.L)
		rc, rn := b.batches(u.E)
		root = &saCountNode{e: e, kids: []*saCountNode{ln, rn}}
		ra.DrainBatches(meter.GuardBatches(lc), out)
		ra.DrainBatches(meter.GuardBatches(rc), out)
		root.n = out.Len()
	} else {
		var cur ra.BatchCursor
		cur, root = b.batches(e)
		ra.DrainBatches(meter.GuardBatches(cur), out)
	}
	tr := &Trace{}
	root.record(tr)
	tr.MaxResident = meter.Max()
	return out, tr
}

// saCountBatchCursor counts rows flowing out of an operator into the
// plan's saCountNode — the batch sibling of saCountCursor.
type saCountBatchCursor struct {
	in   ra.BatchCursor
	node *saCountNode
}

func (c *saCountBatchCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	if ok {
		c.node.n += b.Len()
	}
	return b, ok
}

// vecBuilder translates an SA expression tree into a batch-cursor
// plan, mirroring streamBuilder node for node so both executors
// produce identical emission and trace shapes.
type vecBuilder struct {
	d        rel.ReadStore
	meter    *ra.Meter
	capacity int
}

func (b *vecBuilder) baseRel(n *Rel) rel.StoredRel {
	return rel.CheckView(b.d, n.Name, n.arity, "sa")
}

func (b *vecBuilder) batches(e Expr) (ra.BatchCursor, *saCountNode) {
	node := &saCountNode{e: e}
	var cur ra.BatchCursor
	switch n := e.(type) {
	case *Rel:
		cur = b.meter.GuardBatches(ra.ScanBatches(b.baseRel(n), b.capacity))
	case *Union:
		l, ln := b.batches(n.L)
		r, rn := b.batches(n.E)
		node.kids = []*saCountNode{ln, rn}
		cur = ra.NewUnionSinkBatchCursor(l, r, n.Arity(), b.meter, b.capacity)
	case *Diff:
		l, ln := b.batches(n.L)
		node.kids = []*saCountNode{ln}
		if base, ok := n.E.(*Rel); ok {
			// The subtrahend is a stored relation: probe it in place,
			// holding nothing.
			cur = ra.NewDiffBatchCursor(l, nil, b.baseRel(base), n.Arity(), b.meter)
			node.kids = append(node.kids, &saCountNode{e: n.E})
		} else {
			rc, rn := b.batches(n.E)
			cur = ra.NewDiffBatchCursor(l, rc, nil, n.Arity(), b.meter)
			node.kids = append(node.kids, rn)
		}
	case *Project:
		in, kn := b.batches(n.E)
		node.kids = []*saCountNode{kn}
		cur = ra.NewProjectBatchCursor(in, n.Cols)
	case *Select:
		in, kn := b.batches(n.E)
		node.kids = []*saCountNode{kn}
		cur = ra.NewSelectBatchCursor(in, n.I, n.Op, n.J)
	case *SelectConst:
		in, kn := b.batches(n.E)
		node.kids = []*saCountNode{kn}
		cur = ra.NewSelectConstBatchCursor(in, n.I, n.C)
	case *ConstTag:
		in, kn := b.batches(n.E)
		node.kids = []*saCountNode{kn}
		cur = ra.NewConstTagBatchCursor(in, n.C)
	case *Semijoin:
		cur, node.kids = b.semijoin(n.L, n.Cond, n.E, true)
	case *Antijoin:
		cur, node.kids = b.semijoin(n.L, n.Cond, n.E, false)
	default:
		panic(fmt.Sprintf("sa: unknown expression %T", e))
	}
	return &saCountBatchCursor{in: cur, node: node}, node
}

// semijoin builds the batch plan for l ⋉θ r (keep) or l ▷θ r (!keep),
// choosing the same strategy streamBuilder.semijoin does for the same
// condition shape.
func (b *vecBuilder) semijoin(l Expr, cond ra.Cond, r Expr, keep bool) (ra.BatchCursor, []*saCountNode) {
	lc, ln := b.batches(l)
	kids := []*saCountNode{ln}
	if len(cond.EqPairs()) > 0 {
		rc, rn := b.batches(r)
		kids = append(kids, rn)
		return NewSemijoinBatchCursor(lc, rc, nil, cond, keep, b.meter, b.capacity), kids
	}
	if base, ok := r.(*Rel); ok {
		// Replay the stored relation in place per probe row.
		kids = append(kids, &saCountNode{e: r})
		return NewSemijoinBatchCursor(lc, nil, b.baseRel(base), cond, keep, b.meter, b.capacity), kids
	}
	rc, rn := b.batches(r)
	kids = append(kids, rn)
	return NewSemijoinBatchCursor(lc, rc, nil, cond, keep, b.meter, b.capacity), kids
}

// NewSemijoinBatchCursor builds a vectorized semijoin (keep) or
// antijoin (!keep) cursor for external plan builders (internal/plan's
// mixed executor): left streams as the probe side, and the build side
// is either a batch cursor or — for θ-only conditions — a stored
// relation replayed in place. capacity bounds the output batches of
// the replay materialization (0 means rel.BatchCap). cond must have at
// least one atom and exactly one of build/stored must be set, except
// that an equality condition requires a build cursor.
func NewSemijoinBatchCursor(left, build ra.BatchCursor, stored rel.StoredRel, cond ra.Cond, keep bool, m *ra.Meter, capacity int) ra.BatchCursor {
	if len(cond) == 0 {
		panic("sa: semijoin cursor requires at least one condition atom")
	}
	if (build == nil) == (stored == nil) {
		panic("sa: semijoin cursor requires exactly one of build cursor and stored relation")
	}
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	eqs := cond.EqPairs()
	if len(eqs) > 0 {
		if build == nil {
			panic("sa: semijoin cursor with equality atoms requires a build cursor")
		}
		c := &vecHashSemijoinCursor{
			left: left, buildC: build, eqs: eqs, keep: keep, meter: m,
			buildCols: make([]int, len(eqs)), probeCols: make([]int, len(eqs)),
		}
		for x, p := range eqs {
			c.probeCols[x] = p[0] - 1
			c.buildCols[x] = p[1] - 1
		}
		for _, at := range cond {
			if at.Op != ra.OpEq {
				c.resid = append(c.resid, at)
			}
		}
		if len(c.resid) > 0 {
			c.kbuf = make([]uint32, len(eqs))
			c.pids = make([]uint32, len(eqs))
		}
		return c
	}
	return &vecLoopSemijoinCursor{left: left, buildC: build, stored: stored, cond: cond, keep: keep, meter: m, capacity: capacity}
}

// vecHashSemijoinCursor drains the build (right) side into a hash
// index on interned IDs and compacts probe batches through the partner
// test. A pure-equality condition keeps only the distinct key rows in
// an ra.IDSet (the partner *set* is all a semijoin needs) and a probe
// is IDSet.ContainsCols through the equality columns; a condition with
// residual atoms stores the full build rows in per-column ID stores
// indexed by ra.PackKey, verifying equality on raw IDs and residual
// atoms on decoded values per candidate, exactly as the tuple
// hashSemijoinCursor does.
type vecHashSemijoinCursor struct {
	left      ra.BatchCursor
	buildC    ra.BatchCursor
	eqs       [][2]int
	resid     []ra.Atom
	buildCols []int // 0-based build columns of the equality atoms
	probeCols []int // 0-based probe columns of the equality atoms
	keep      bool
	meter     *ra.Meter

	opened bool
	keys   *ra.IDSet // keysOnly strategy: distinct equality-key rows
	build  []*ra.ColStore
	index  map[uint64][]int32
	rows   int
	kbuf   []uint32
	pids   []uint32
	held   int
}

func (c *vecHashSemijoinCursor) openBuild() {
	if len(c.resid) == 0 {
		c.keys = ra.NewIDSet(len(c.eqs))
		for b, ok := c.buildC.NextBatch(); ok; b, ok = c.buildC.NextBatch() {
			n := b.Len()
			for row := 0; row < n; row++ {
				if c.keys.AddCols(b, row, c.buildCols) {
					c.meter.Grow(1)
					c.held++
				}
			}
			b.Release()
		}
		return
	}
	c.index = make(map[uint64][]int32)
	for b, ok := c.buildC.NextBatch(); ok; b, ok = c.buildC.NextBatch() {
		n := b.Len()
		if c.build == nil {
			c.build = make([]*ra.ColStore, b.Arity())
			for k := range c.build {
				c.build[k] = ra.NewColStore()
			}
		}
		base := c.rows
		for k, cs := range c.build {
			col, d := b.Col(k), b.Dict(k)
			for row := 0; row < n; row++ {
				cs.Append(d, col[row])
			}
		}
		c.rows += n
		c.meter.Grow(n)
		c.held += n
		for row := 0; row < n; row++ {
			for x, bc := range c.buildCols {
				c.kbuf[x] = c.build[bc].IDs[base+row]
			}
			c.index[ra.PackKey(c.kbuf)] = append(c.index[ra.PackKey(c.kbuf)], int32(base+row))
		}
		b.Release()
	}
}

// partner reports whether probe row `row` of b has a build-side
// partner under the condition.
func (c *vecHashSemijoinCursor) partner(b *rel.Batch, row int) bool {
	if c.keys != nil {
		return c.keys.ContainsCols(b, row, c.probeCols)
	}
	if c.rows == 0 {
		return false
	}
	for x, pc := range c.probeCols {
		id, ok := c.build[c.buildCols[x]].Map.Lookup(b.Dict(pc), b.Col(pc)[row])
		if !ok {
			return false // a key value the build side has never seen
		}
		c.pids[x] = id
	}
	for _, brow := range c.index[ra.PackKey(c.pids)] {
		if c.verify(b, row, int(brow)) {
			return true
		}
	}
	return false
}

func (c *vecHashSemijoinCursor) verify(b *rel.Batch, row, brow int) bool {
	for x, bc := range c.buildCols {
		if c.build[bc].IDs[brow] != c.pids[x] {
			return false
		}
	}
	for _, at := range c.resid {
		bs := c.build[at.R-1]
		if !at.Op.Eval(b.Value(at.L-1, row), bs.Dict.Value(bs.IDs[brow])) {
			return false
		}
	}
	return true
}

func (c *vecHashSemijoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.openBuild()
	}
	for {
		b, ok := c.left.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.keys, c.build, c.index = nil, nil, nil
			return nil, false
		}
		out := ra.FilterBatch(b, func(row int) bool { return c.partner(b, row) == c.keep })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecLoopSemijoinCursor handles semijoins without equality atoms: the
// right side is replayed per probe row over flat ID columns — the
// in-memory relation's own columns in place (nothing held), otherwise
// a materialized, metered columnar copy.
type vecLoopSemijoinCursor struct {
	left     ra.BatchCursor
	buildC   ra.BatchCursor
	stored   rel.StoredRel
	cond     ra.Cond
	keep     bool
	meter    *ra.Meter
	capacity int

	opened bool
	rcols  [][]uint32
	rdicts []*rel.Interner
	rn     int
	held   int
}

func (c *vecLoopSemijoinCursor) open() {
	switch {
	case c.buildC != nil:
		c.rcols, c.rdicts, c.rn = ra.MaterializeBatchColumns(c.buildC, c.meter)
		c.held = c.rn
	default:
		if r, ok := c.stored.(*rel.Relation); ok {
			cols, dict := r.IDColumns()
			c.rcols = cols
			c.rdicts = make([]*rel.Interner, len(cols))
			for k := range c.rdicts {
				c.rdicts[k] = dict
			}
			c.rn = r.Len()
			return
		}
		// Non-in-memory stored backend: materialize (and meter) a
		// columnar copy instead of replaying the backend per probe row.
		tb := rel.ToBatches(c.stored.Scan(), c.stored.Arity(), c.capacity)
		c.meter.Watch(tb)
		c.rcols, c.rdicts, c.rn = ra.MaterializeBatchColumns(tb, c.meter)
		c.held = c.rn
	}
}

// partner reports whether probe row `row` of b satisfies the condition
// against any replayed right row.
func (c *vecLoopSemijoinCursor) partner(b *rel.Batch, row int) bool {
	for ri := 0; ri < c.rn; ri++ {
		holds := true
		for _, at := range c.cond {
			if !at.Op.Eval(b.Value(at.L-1, row), c.rdicts[at.R-1].Value(c.rcols[at.R-1][ri])) {
				holds = false
				break
			}
		}
		if holds {
			return true
		}
	}
	return false
}

func (c *vecLoopSemijoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.open()
	}
	for {
		b, ok := c.left.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.rcols, c.rdicts = nil, nil
			return nil, false
		}
		out := ra.FilterBatch(b, func(row int) bool { return c.partner(b, row) == c.keep })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}
