package plan

import (
	"fmt"

	"radiv/internal/rel"
)

// The rewrite framework: rules transform IR trees, every firing is
// cost-guarded by the shared estimates, and every firing is recorded
// so -explain can show what happened and why.
//
// The rules run in a fixed order chosen by specificity:
//
//  1. division    — the quadratic RA division idiom becomes Section
//                   5's linear γ-expression (most specific shape).
//  2. linearize   — maximal structurally linear RA subplans become
//                   linear-flow SA= plans via core.LinearizeExact.
//  3. joinorder   — join commutation puts the smaller side on the
//                   build input of what stays a join.
//  4. semijoin    — semijoin reduction shrinks oversized build sides
//                   of the residual quadratic joins.
//
// Every rule is a pure function of the plan and the bound store's
// statistics: plans are compiled against a store (Compile), so the
// guards price the actual database, not a hypothetical one.

// Firing records one rule application for Explain.
type Firing struct {
	// Rule is the rule's name.
	Rule string
	// Note says what was rewritten and what the guard measured.
	Note string
}

// rewriter is one rewrite pass over a plan.
type rewriter interface {
	name() string
	// rewrite returns the (possibly) transformed plan and the
	// firings it performed.
	rewrite(d rel.ReadStore, n *Node) (*Node, []Firing)
}

// defaultRules is the planner's rule pipeline, in application order.
func defaultRules() []rewriter {
	return []rewriter{divisionRule{}, linearizeRule{}, joinOrderRule{}, semijoinReduceRule{}}
}

// optimize runs the rule pipeline until a full pass changes nothing
// (bounded — each rule's guards are monotone in estimated flow, and a
// safety cap backstops rule bugs).
func optimize(d rel.ReadStore, root *Node) (*Node, []Firing) {
	var all []Firing
	for pass := 0; pass < 8; pass++ {
		changed := false
		for _, r := range defaultRules() {
			next, firings := r.rewrite(d, root)
			if len(firings) > 0 {
				all = append(all, firings...)
				root = next
				changed = true
			}
		}
		if !changed {
			return root, all
		}
	}
	return root, all
}

// isGammaDivision reports whether the executor runs n as one operator,
// the aggregate division (matchGammaDivision). The join rules leave
// such a subtree alone: commuting or reducing one of its joins would
// stop it from matching, and it would run as its five operators,
// holding its whole join instead of the divisor and one counter per
// group.
func isGammaDivision(n *Node) bool {
	_, _, _, ok := matchGammaDivision(n)
	return ok
}

// rewriteKids applies f to every kid and rebuilds the node when any
// kid changed, preserving arity invariants via the constructors.
func rewriteKids(n *Node, f func(*Node) *Node) *Node {
	if len(n.Kids) == 0 {
		return n
	}
	kids := make([]*Node, len(n.Kids))
	changed := false
	for i, k := range n.Kids {
		kids[i] = f(k)
		if kids[i] != k {
			changed = true
		}
	}
	if !changed {
		return n
	}
	switch n.Kind {
	case KUnion:
		return NUnion(kids[0], kids[1])
	case KDiff:
		return NDiff(kids[0], kids[1])
	case KProject:
		return NProject(n.Cols, kids[0])
	case KSelect:
		return NSelect(n.I, n.Op, n.J, kids[0])
	case KSelectConst:
		return NSelectConst(n.I, n.C, kids[0])
	case KConstTag:
		return NConstTag(n.C, kids[0])
	case KJoin:
		return NJoin(kids[0], n.Cond, kids[1])
	case KSemijoin:
		return NSemijoin(kids[0], n.Cond, kids[1])
	case KAntijoin:
		return NAntijoin(kids[0], n.Cond, kids[1])
	case KGamma:
		return NGamma(n.Cols, n.CountCol, kids[0])
	}
	panic(fmt.Sprintf("plan: unknown kind %d", n.Kind))
}
