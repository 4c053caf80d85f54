package ra

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"radiv/internal/rel"
)

// Trace records, for one evaluation, the output cardinality of every
// subexpression. It is the observable that Definition 16's c(E)
// function measures: an expression is linear when every subexpression
// stays O(n) and quadratic when some subexpression reaches Ω(n²).
type Trace struct {
	// Steps lists each evaluated node with its output size, in
	// post-order (children before parents).
	Steps []TraceStep
	// MaxIntermediate is the maximum output cardinality over all
	// subexpressions, including the root. (The executor's plan.Trace
	// reports emission counts instead, which are not like-for-like
	// cardinalities.)
	MaxIntermediate int
	// TotalTuples is the sum of all output cardinalities — a proxy for
	// the total work an iterator-based executor would materialize.
	TotalTuples int
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

// String renders the trace as a table of subexpression sizes.
func (tr *Trace) String() string {
	var b strings.Builder
	for _, s := range tr.Steps {
		fmt.Fprintf(&b, "%8d  %s\n", s.Size, s.Expr)
	}
	fmt.Fprintf(&b, "max intermediate: %d\n", tr.MaxIntermediate)
	return b.String()
}

// Eval evaluates the expression on a store — the in-memory
// rel.Database or any other rel.ReadStore backend, such as the
// hash-partitioned shard.Database — and returns the result relation.
func Eval(e Expr, d rel.ReadStore) *rel.Relation {
	res, _ := EvalTraced(e, d)
	return res
}

// EvalTraced evaluates the expression and also returns the
// intermediate-size trace. The expression is validated first
// (Validate), so malformed trees — possible through direct struct
// construction, which bypasses the checking constructors — fail with a
// clear "ra:"-prefixed panic instead of a raw index-out-of-range.
//
// The returned relation is always owned by the caller: when the root
// of the expression is a bare relation name, an aliased stored
// relation is cloned (copy-on-read), so mutating the result never
// writes through to the store. Every operator node already returns a
// fresh relation; interior relation-name results are aliased read-only
// views that never escape.
func EvalTraced(e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("ra: invalid expression: " + err.Error())
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

// evaluator carries the materialized evaluation's base-relation
// resolver (rel.BaseResolver: snapshot memoization for non-Database
// backends, the aliasing flag driving the root-clone decision).
type evaluator struct {
	rels *rel.BaseResolver
}

func newEvaluator(d rel.ReadStore) *evaluator {
	return &evaluator{rels: rel.NewBaseResolver(d, "ra")}
}

// base resolves a relation-name node to a relation plus whether it
// aliases store-owned storage.
func (v *evaluator) base(n *Rel) (*rel.Relation, bool) {
	return v.rels.Resolve(n.Name, n.arity)
}

// Validate checks every node of the expression tree for structural
// errors: projection and selection column indices out of the child's
// arity, join-condition atoms out of the operands' arities, and
// union/difference arity mismatches. The checking constructors
// (NewSelect, NewProject, ...) enforce the same invariants at build
// time; Validate covers trees assembled from struct literals.
func Validate(e Expr) error {
	for _, c := range e.Children() {
		if err := Validate(c); err != nil {
			return err
		}
	}
	switch n := e.(type) {
	case *Rel:
		// Arity consistency with the database is checked at eval time.
	case *Union:
		if n.L.Arity() != n.E.Arity() {
			return fmt.Errorf("union of arities %d and %d", n.L.Arity(), n.E.Arity())
		}
	case *Diff:
		if n.L.Arity() != n.E.Arity() {
			return fmt.Errorf("difference of arities %d and %d", n.L.Arity(), n.E.Arity())
		}
	case *Project:
		for _, c := range n.Cols {
			if c < 1 || c > n.E.Arity() {
				return fmt.Errorf("projection index %d out of range 1..%d in %s", c, n.E.Arity(), n)
			}
		}
	case *Select:
		if n.I < 1 || n.I > n.E.Arity() || n.J < 1 || n.J > n.E.Arity() {
			return fmt.Errorf("selection σ%d%s%d on arity %d", n.I, n.Op, n.J, n.E.Arity())
		}
	case *SelectConst:
		if n.I < 1 || n.I > n.E.Arity() {
			return fmt.Errorf("selection σ%d='%v' on arity %d", n.I, n.C, n.E.Arity())
		}
	case *ConstTag:
		// Always well formed.
	case *Join:
		if err := n.Cond.Validate(n.L.Arity(), n.E.Arity()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
	return nil
}

func (v *evaluator) eval(e Expr, tr *Trace) *rel.Relation {
	var out *rel.Relation
	switch n := e.(type) {
	case *Rel:
		// Interior base relations are read-only views — aliased into
		// the database or shared snapshots from the memo — that never
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
	case *Join:
		out = evalJoin(n, v.eval(n.L, tr), v.eval(n.E, tr))
	default:
		panic(fmt.Sprintf("ra: unknown expression %T", e))
	}
	tr.record(e, out.Len())
	return out
}

// JoinKeyer computes 64-bit hash keys over the equality columns of a
// join condition, shared by the materialized hash joins of all three
// algebras. Values are interned into a per-join dictionary; with at
// most two equality atoms the IDs pack exactly (collision-free) into
// the key, with more they are mixed by rel.HashIDs — collisions only
// cost extra Cond.Holds verifications, never correctness, since every
// consumer checks the full condition on each candidate pair.
type JoinKeyer struct {
	eqs  [][2]int
	dict *rel.Interner
	ids  []uint32
}

// NewJoinKeyer builds a keyer over the given equality pairs (as
// returned by Cond.EqPairs: 1-based left column, 1-based right column).
func NewJoinKeyer(eqs [][2]int) *JoinKeyer {
	return &JoinKeyer{eqs: eqs, dict: rel.NewInterner(), ids: make([]uint32, len(eqs))}
}

// Key computes the hash key of t's equality columns; side 1 interns
// (build side), side 0 looks up only (probe side) and reports values
// missing from the dictionary, which cannot participate in any
// equality match.
func (k *JoinKeyer) Key(t rel.Tuple, side int) (uint64, bool) {
	for i, p := range k.eqs {
		v := t[p[side]-1]
		if side == 1 {
			k.ids[i] = k.dict.Intern(v)
		} else {
			id, ok := k.dict.ID(v)
			if !ok {
				return 0, false
			}
			k.ids[i] = id
		}
	}
	if len(k.eqs) <= 2 {
		var h uint64
		for _, id := range k.ids {
			h = h<<32 | uint64(id)
		}
		return h, true
	}
	return rel.HashIDs(k.ids), true
}

// evalJoin computes r1 ⋈θ r2. When θ contains equality atoms, a hash
// join keyed by joinKeyer on the equality columns is used and the
// remaining atoms are applied as a residual filter; without equalities
// it falls back to a nested-loop join.
func evalJoin(j *Join, r1, r2 *rel.Relation) *rel.Relation {
	out := rel.NewRelation(r1.Arity() + r2.Arity())
	r1t, r2t := r1.Tuples(), r2.Tuples()
	eqs := j.Cond.EqPairs()
	if len(eqs) == 0 {
		for _, a := range r1t {
			for _, b := range r2t {
				if j.Cond.Holds(a, b) {
					out.Add(a.Concat(b))
				}
			}
		}
		return out
	}
	kr := NewJoinKeyer(eqs)
	index := make(map[uint64][]rel.Tuple, r2.Len())
	for _, b := range r2t {
		k, _ := kr.Key(b, 1)
		index[k] = append(index[k], b)
	}
	for _, a := range r1t {
		k, ok := kr.Key(a, 0)
		if !ok {
			continue
		}
		for _, b := range index[k] {
			if j.Cond.Holds(a, b) {
				out.Add(a.Concat(b))
			}
		}
	}
	return out
}

// SizeProfile runs the expression on a family of databases produced by
// gen for increasing scale parameters and returns, per scale, the
// database size and the maximum intermediate size. It is the raw
// material for the empirical dichotomy experiments (Theorem 17).
type SizePoint struct {
	Scale           int
	DatabaseSize    int
	OutputSize      int
	MaxIntermediate int
}

// Profile evaluates e on gen(scale) for each scale and records the
// growth of intermediate results.
func Profile(e Expr, gen func(scale int) *rel.Database, scales []int) []SizePoint {
	pts := make([]SizePoint, 0, len(scales))
	for _, s := range scales {
		d := gen(s)
		res, tr := EvalTraced(e, d)
		pts = append(pts, SizePoint{
			Scale:           s,
			DatabaseSize:    d.Size(),
			OutputSize:      res.Len(),
			MaxIntermediate: tr.MaxIntermediate,
		})
	}
	return pts
}

// GrowthExponent estimates the exponent p such that max-intermediate ≈
// c·|D|^p from a profile, by least-squares on the log–log points.
// Points with zero sizes are skipped; if fewer than two usable points
// remain it returns 0.
func GrowthExponent(pts []SizePoint) float64 {
	type xy struct{ x, y float64 }
	var data []xy
	for _, p := range pts {
		if p.DatabaseSize > 0 && p.MaxIntermediate > 0 {
			data = append(data, xy{math.Log(float64(p.DatabaseSize)), math.Log(float64(p.MaxIntermediate))})
		}
	}
	if len(data) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, d := range data {
		sx += d.x
		sy += d.y
		sxx += d.x * d.x
		sxy += d.x * d.y
	}
	n := float64(len(data))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// sortSteps orders the steps of a trace by decreasing size; useful for
// reporting the dominating subexpression.
func (tr *Trace) sortSteps() []TraceStep {
	s := make([]TraceStep, len(tr.Steps))
	copy(s, tr.Steps)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Size > s[j].Size })
	return s
}

// Dominating returns the subexpression with the largest output in the
// trace.
func (tr *Trace) Dominating() TraceStep {
	if len(tr.Steps) == 0 {
		return TraceStep{}
	}
	return tr.sortSteps()[0]
}
