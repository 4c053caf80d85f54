package plan

import (
	"fmt"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// joinOrderRule is classic join commutation for the plans that stay
// quadratic: the executor materializes a hash join's right
// (build) side and streams the left (probe) side, so when the build
// side is estimated larger than the probe side the rule swaps them —
// E1 ⋈θ E2 becomes π_perm(E2 ⋈θ' E1) with θ' the mirrored condition
// and perm restoring the original column order.
//
// The swap trades resident state (the build table shrinks by the side
// difference) for flow (the restoring projection re-emits every output
// row), priced one-for-one: it fires when
//
//	rows(E2) − rows(E1) > rows(E1 ⋈θ E2).
//
// Only equi-joins are considered: a θ-only join against a stored right
// side is walked in place at zero resident cost, which a swap would
// destroy. Nor are the joins inside a γ-division (isGammaDivision),
// which the executor runs as one operator holding less than either
// order would.
type joinOrderRule struct{}

func (joinOrderRule) name() string { return "joinorder" }

func (joinOrderRule) rewrite(d rel.ReadStore, root *Node) (*Node, []Firing) {
	var firings []Firing
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		if isGammaDivision(n) {
			return n
		}
		n = rewriteKids(n, rec)
		if n.Kind != KJoin || len(n.Cond.EqPairs()) == 0 {
			return n
		}
		l, r := n.Kids[0], n.Kids[1]
		le, re := estimate(d, l), estimate(d, r)
		out := estimate(d, n)
		if re.Rows-le.Rows <= out.Rows {
			return n
		}
		swapped := NProject(restorePerm(l.arity, r.arity), NJoin(r, mirrorCond(n.Cond), l))
		firings = append(firings, Firing{
			Rule: "joinorder",
			Note: fmt.Sprintf("commuted join[%s]: build %.0f rows -> %.0f", n.Cond, re.Rows, le.Rows),
		})
		return swapped
	}
	return rec(root), firings
}

// mirrorCond rewrites θ for swapped operands: atom i α j becomes
// j α' i with α' the mirrored comparison.
func mirrorCond(c ra.Cond) ra.Cond {
	out := make(ra.Cond, len(c))
	for k, at := range c {
		op := at.Op
		switch op {
		case ra.OpLt:
			op = ra.OpGt
		case ra.OpGt:
			op = ra.OpLt
		}
		out[k] = ra.A(at.R, op, at.L)
	}
	return out
}

// restorePerm maps the swapped join's output (E2 columns then E1
// columns) back to the original (E1, E2) order.
func restorePerm(lArity, rArity int) []int {
	cols := make([]int, 0, lArity+rArity)
	for i := 1; i <= lArity; i++ {
		cols = append(cols, rArity+i)
	}
	for j := 1; j <= rArity; j++ {
		cols = append(cols, j)
	}
	return cols
}
