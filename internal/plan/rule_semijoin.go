package plan

import (
	"fmt"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// semijoinReduceRule is classic semijoin reduction for the residual
// quadratic joins: E1 ⋈θ E2 becomes E1 ⋈θ (E2 ⋉θ'= E1), filtering the
// build side down to the tuples that can find an equality partner
// before the join materializes it. The joining pairs are untouched —
// every build tuple the join would match survives the semijoin — so
// the rewrite is exact.
//
// Reduction never reduces flow: it *adds* the semijoin's output plus a
// second evaluation of E1 (the plan is a DAG; E1 feeds both the
// semijoin's build input and the join's probe input). What it buys is
// resident state: the join's build table shrinks from all of E2 to the
// partnered fraction, while the semijoin holds only E1's distinct key
// tuples. Priced one-for-one, the rule fires when
//
//	rows(E2)·(1−sel) − keys(E1) > sel·rows(E2) + flow(E1)
//
// with sel the estimated partnered fraction of E2 — i.e. when the
// build side is large and mostly partnerless while the probe side is
// small. The joins inside a γ-division (isGammaDivision) are left
// alone: the executor runs it as one operator.
type semijoinReduceRule struct{}

func (semijoinReduceRule) name() string { return "semijoin" }

func (semijoinReduceRule) rewrite(d rel.ReadStore, root *Node) (*Node, []Firing) {
	var firings []Firing
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		if isGammaDivision(n) {
			return n
		}
		n = rewriteKids(n, rec)
		eqs := n.Cond.EqPairs()
		if n.Kind != KJoin || len(eqs) == 0 {
			return n
		}
		l, r := n.Kids[0], n.Kids[1]
		if r.Kind == KSemijoin {
			return n // already reduced
		}
		m := len(eqs)
		le, re := estimate(d, l), estimate(d, r)
		lKeys := keyDistinct(le, m, l.arity)
		rKeys := keyDistinct(re, m, r.arity)
		sel := semijoinSelectivity(rKeys, lKeys)
		residentSave := re.Rows*(1-sel) - lKeys
		flowAdded := sel*re.Rows + estFlow(d, l)
		if residentSave <= flowAdded {
			return n
		}
		reduced := NJoin(l, n.Cond, NSemijoin(r, mirrorEqs(eqs), l))
		firings = append(firings, Firing{
			Rule: "semijoin",
			Note: fmt.Sprintf("reduced build of join[%s]: %.0f rows -> %.0f", n.Cond, re.Rows, sel*re.Rows),
		})
		return reduced
	}
	return rec(root), firings
}

// mirrorEqs turns the join's equality pairs (probe col, build col)
// into the reducer's condition (build col = probe col).
func mirrorEqs(eqs [][2]int) ra.Cond {
	out := make(ra.Cond, len(eqs))
	for k, p := range eqs {
		out[k] = ra.A(p[1], ra.OpEq, p[0])
	}
	return out
}
