package sa

import (
	"fmt"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// Trace mirrors ra.Trace for semijoin algebra evaluation. Because
// every SA operator's output is bounded by the size of one of its
// inputs, MaxIntermediate never exceeds the database size plus the
// constant-tagging overhead — the syntactic linearity the paper
// exploits.
type Trace struct {
	Steps           []TraceStep
	MaxIntermediate int
	TotalTuples     int
}

// TraceStep is one subexpression's evaluation record.
type TraceStep struct {
	Expr Expr
	Size int
}

func (tr *Trace) record(e Expr, size int) {
	tr.Steps = append(tr.Steps, TraceStep{e, size})
	if size > tr.MaxIntermediate {
		tr.MaxIntermediate = size
	}
	tr.TotalTuples += size
}

// Eval evaluates the expression on a store (any rel.ReadStore backend).
func Eval(e Expr, d rel.ReadStore) *rel.Relation {
	res, _ := EvalTraced(e, d)
	return res
}

// EvalTraced evaluates the expression and returns the intermediate-size
// trace. The expression is validated first (Validate), so malformed
// trees — possible through direct struct construction, which bypasses
// the checking constructors — fail with a clear "sa:"-prefixed panic
// instead of a raw index-out-of-range mid-eval.
//
// The returned relation is always owned by the caller: when the root
// of the expression is a bare relation name, an aliased stored
// relation is cloned (copy-on-read), so mutating the result never
// writes through to the store. Every operator node already returns a
// fresh relation; interior relation-name results are aliased read-only
// views that never escape.
func EvalTraced(e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("sa: invalid expression: " + err.Error())
	}
	tr := &Trace{}
	v := newEvaluator(d)
	if n, bare := e.(*Rel); bare {
		r, aliased := v.base(n)
		tr.record(e, r.Len())
		if aliased {
			// The store handed out its own relation: clone, so the
			// caller owns the result. Snapshots are already fresh.
			r = r.Clone()
		}
		return r, tr
	}
	return v.eval(e, tr), tr
}

// evaluator mirrors the ra evaluator context: the shared
// rel.BaseResolver does the snapshot memoization and aliasing
// bookkeeping for both algebras.
type evaluator struct {
	rels *rel.BaseResolver
}

func newEvaluator(d rel.ReadStore) *evaluator {
	return &evaluator{rels: rel.NewBaseResolver(d, "sa")}
}

// base resolves a relation-name node to a relation plus whether it
// aliases store-owned storage.
func (v *evaluator) base(n *Rel) (*rel.Relation, bool) {
	return v.rels.Resolve(n.Name, n.arity)
}

func (v *evaluator) eval(e Expr, tr *Trace) *rel.Relation {
	var out *rel.Relation
	switch n := e.(type) {
	case *Rel:
		// Interior base relations are read-only views that never
		// escape; only the root result needs ownership handling.
		out, _ = v.base(n)
	case *Union:
		out = v.eval(n.L, tr).Union(v.eval(n.E, tr))
	case *Diff:
		out = v.eval(n.L, tr).Diff(v.eval(n.E, tr))
	case *Project:
		out = v.eval(n.E, tr).Project(n.Cols...)
	case *Select:
		in := v.eval(n.E, tr)
		out = rel.NewRelation(in.Arity())
		for _, t := range in.Tuples() {
			if n.Op.Eval(t[n.I-1], t[n.J-1]) {
				out.Add(t)
			}
		}
	case *SelectConst:
		in := v.eval(n.E, tr)
		out = rel.NewRelation(in.Arity())
		for _, t := range in.Tuples() {
			if t[n.I-1].Equal(n.C) {
				out.Add(t)
			}
		}
	case *ConstTag:
		in := v.eval(n.E, tr)
		out = rel.NewRelation(in.Arity() + 1)
		for _, t := range in.Tuples() {
			out.Add(t.Concat(rel.Tuple{n.C}))
		}
	case *Semijoin:
		out = evalSemijoin(n.Cond, v.eval(n.L, tr), v.eval(n.E, tr), true)
	case *Antijoin:
		out = evalSemijoin(n.Cond, v.eval(n.L, tr), v.eval(n.E, tr), false)
	default:
		panic(fmt.Sprintf("sa: unknown expression %T", e))
	}
	tr.record(e, out.Len())
	return out
}

// evalSemijoin computes r1 ⋉θ r2 (keep = true) or r1 ▷θ r2
// (keep = false). Equality atoms are used to build a hash index on r2
// keyed by interned value IDs (ra.JoinKeyer, the same keying the RA
// hash joins use — no key strings are built); remaining atoms are
// verified per candidate, and Cond.Holds confirms equality on every
// candidate so hash collisions never cost correctness.
func evalSemijoin(cond ra.Cond, r1, r2 *rel.Relation, keep bool) *rel.Relation {
	out := rel.NewRelation(r1.Arity())
	eqs := cond.EqPairs()
	var hasPartner func(a rel.Tuple) bool
	if len(eqs) == 0 {
		r2t := r2.Tuples()
		hasPartner = func(a rel.Tuple) bool {
			for _, b := range r2t {
				if cond.Holds(a, b) {
					return true
				}
			}
			return false
		}
	} else {
		kr := ra.NewJoinKeyer(eqs)
		index := make(map[uint64][]rel.Tuple, r2.Len())
		for _, b := range r2.Tuples() {
			k, _ := kr.Key(b, 1)
			index[k] = append(index[k], b)
		}
		hasPartner = func(a rel.Tuple) bool {
			k, ok := kr.Key(a, 0)
			if !ok {
				return false
			}
			for _, b := range index[k] {
				if cond.Holds(a, b) {
					return true
				}
			}
			return false
		}
	}
	for _, a := range r1.Tuples() {
		if hasPartner(a) == keep {
			out.Add(a)
		}
	}
	return out
}

// ToRA translates the SA expression into an equivalent RA expression.
// Equi-semijoins use the linear rewriting shown after Theorem 18
// (project the right side onto the joined columns first); antijoins
// desugar through difference. Semijoins with non-equality atoms fall
// back to join-then-project, which need not be linear.
func ToRA(e Expr) ra.Expr {
	switch n := e.(type) {
	case *Rel:
		return ra.R(n.Name, n.arity)
	case *Union:
		return ra.NewUnion(ToRA(n.L), ToRA(n.E))
	case *Diff:
		return ra.NewDiff(ToRA(n.L), ToRA(n.E))
	case *Project:
		return ra.NewProject(n.Cols, ToRA(n.E))
	case *Select:
		return ra.NewSelect(n.I, n.Op, n.J, ToRA(n.E))
	case *SelectConst:
		return ra.NewSelectConst(n.I, n.C, ToRA(n.E))
	case *ConstTag:
		return ra.NewConstTag(n.C, ToRA(n.E))
	case *Semijoin:
		return semijoinToRA(ToRA(n.L), n.Cond, ToRA(n.E))
	case *Antijoin:
		l := ToRA(n.L)
		return ra.NewDiff(l, semijoinToRA(l, n.Cond, ToRA(n.E)))
	}
	panic(fmt.Sprintf("sa: unknown expression %T", e))
}

func semijoinToRA(l ra.Expr, c ra.Cond, r ra.Expr) ra.Expr {
	if c.IsEquiOnly() && len(c) > 0 {
		return ra.EquiSemijoinExpr(l, c, r)
	}
	// General θ: join then project back to the left columns. This is
	// correct but may be quadratic, matching the theory (only
	// equi-semijoins are guaranteed linear in RA).
	cols := make([]int, l.Arity())
	for i := range cols {
		cols[i] = i + 1
	}
	return ra.NewProject(cols, ra.NewJoin(l, c, r))
}

// LousyBarExpr returns the SA= expression of Example 3: the drinkers
// that visit a "lousy" bar (a bar serving only beers nobody likes):
//
//	π1( Visits ⋉2=1 ( π1(Serves) − π1(Serves ⋉2=2 Likes) ) )
func LousyBarExpr() Expr {
	visits := R("Visits", 2)
	serves := R("Serves", 2)
	likes := R("Likes", 2)
	lousy := NewDiff(
		NewProject([]int{1}, serves),
		NewProject([]int{1}, NewSemijoin(serves, ra.Eq(2, 2), likes)),
	)
	return NewProject([]int{1}, NewSemijoin(visits, ra.Eq(2, 1), lousy))
}
