package plan

import (
	"fmt"

	"radiv/internal/rel"
	"radiv/internal/xra"
)

// divisionRule rewrites the classical quadratic division idiom
// (ra.DivisionExpr's shape)
//
//	π₁(R) − π₁( (π₁(R) × S) − R )
//
// into Section 5's linear γ-expression (xra.ContainmentDivision)
//
//	π₁( γ_{1,count(2)}(R ⋈_{2=1} S) ⋈_{2=1} γ_{∅,count(1)}(S) )
//
// — the paper's closing observation made automatic: division is not
// expressible in SA= (Proposition 26), so the linearize rule must
// decline it, but the extended algebra runs it with linear flow.
//
// The rewrite is exact only when S is nonempty: division by the empty
// set yields every candidate π₁(R), while the γ-expression's per-group
// counts join an empty side and yield nothing. Plans are compiled
// against a store, so the guard checks the bound S directly and
// declines (recording nothing) when it is empty. The cost guard then
// requires the estimated flow to drop, which it does whenever the
// cartesian candidate space outgrows the equi-join's matched pairs.
type divisionRule struct{}

func (divisionRule) name() string { return "division" }

func (divisionRule) rewrite(d rel.ReadStore, root *Node) (*Node, []Firing) {
	var firings []Firing
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		if rName, sName, ok := matchDivision(n); ok {
			if nonemptyUnary(d, sName) {
				cand := FromXRA(xra.ContainmentDivision(rName, sName))
				before, after := estFlow(d, n), estFlow(d, cand)
				if after < before {
					firings = append(firings, Firing{
						Rule: "division",
						Note: fmt.Sprintf("division(%s, %s) -> γ-division, est flow %.0f -> %.0f", rName, sName, before, after),
					})
					return cand
				}
			}
		}
		return rewriteKids(n, rec)
	}
	return rec(root), firings
}

// nonemptyUnary reports whether the store holds a nonempty unary
// relation of that name — the divisors on which division and the
// γ-expression agree.
func nonemptyUnary(d rel.ReadStore, name string) bool {
	arity, ok := d.Schema().Arity(name)
	return ok && arity == 1 && d.View(name).Len() > 0
}

// matchDivision recognizes the IR shape of ra.DivisionExpr(rName,
// sName): diff(π₁(R), π₁(diff(join[true](π₁(R), S), R))) with R
// binary, S unary, and the same R in all three places.
func matchDivision(n *Node) (rName, sName string, ok bool) {
	if n.Kind != KDiff {
		return "", "", false
	}
	r1, ok := matchProj1Rel(n.Kids[0], 2)
	if !ok {
		return "", "", false
	}
	outer := n.Kids[1]
	if outer.Kind != KProject || len(outer.Cols) != 1 || outer.Cols[0] != 1 {
		return "", "", false
	}
	inner := outer.Kids[0]
	if inner.Kind != KDiff {
		return "", "", false
	}
	sub := inner.Kids[1]
	if sub.Kind != KRel || sub.arity != 2 || sub.Name != r1 {
		return "", "", false
	}
	prod := inner.Kids[0]
	if prod.Kind != KJoin || len(prod.Cond) != 0 {
		return "", "", false
	}
	r2, ok := matchProj1Rel(prod.Kids[0], 2)
	if !ok || r2 != r1 {
		return "", "", false
	}
	s := prod.Kids[1]
	if s.Kind != KRel || s.arity != 1 {
		return "", "", false
	}
	return r1, s.Name, true
}

// matchProj1Rel matches π₁ of a stored relation of the given arity.
func matchProj1Rel(n *Node, arity int) (string, bool) {
	if n.Kind != KProject || len(n.Cols) != 1 || n.Cols[0] != 1 {
		return "", false
	}
	kid := n.Kids[0]
	if kid.Kind != KRel || kid.arity != arity {
		return "", false
	}
	return kid.Name, true
}
