package plan

import (
	"fmt"
	"strings"
)

// Explain renders the compiled plan for humans: the engine it is
// bound to, the rule firings that shaped it, and the plan tree with
// per-node cost estimates from the shared model, marking the
// γ-divisions the executor runs as one aggregate-division operator.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %s\n", p.engine)
	if !p.opts.Optimize {
		b.WriteString("rules: off (-optimize not set)\n")
	} else if len(p.firings) == 0 {
		b.WriteString("rules fired: none\n")
	} else {
		b.WriteString("rules fired:\n")
		for _, f := range p.firings {
			fmt.Fprintf(&b, "  %s: %s\n", f.Rule, f.Note)
		}
	}
	b.WriteString("plan:\n")
	p.explainNode(&b, p.root, 1)
	return b.String()
}

func (p *Plan) explainNode(b *strings.Builder, n *Node, depth int) {
	est := estimate(p.d, n)
	fmt.Fprintf(b, "%s%s  (arity %d, est rows %.0f, distinct %.0f)",
		strings.Repeat("  ", depth), head(n), n.arity, est.Rows, est.Distinct)
	if r, s, sem, ok := matchGammaDivision(n); ok {
		fmt.Fprintf(b, "  [run as aggregate division: %s ÷ %s, %s]", r, s, sem)
	}
	b.WriteByte('\n')
	for _, k := range n.Kids {
		p.explainNode(b, k, depth+1)
	}
}

// head renders one node's operator without its subtrees.
func head(n *Node) string {
	switch n.Kind {
	case KRel:
		return n.Name
	case KUnion, KDiff:
		return n.Kind.String()
	case KProject:
		return fmt.Sprintf("project[%s]", joinInts(n.Cols))
	case KSelect:
		return fmt.Sprintf("select[%d%s%d]", n.I, n.Op, n.J)
	case KSelectConst:
		return fmt.Sprintf("selectc[%d='%v']", n.I, n.C)
	case KConstTag:
		return fmt.Sprintf("tag['%v']", n.C)
	case KJoin, KSemijoin, KAntijoin:
		return fmt.Sprintf("%s[%s]", n.Kind, n.Cond)
	case KGamma:
		count := "*"
		if n.CountCol > 0 {
			count = fmt.Sprint(n.CountCol)
		}
		return fmt.Sprintf("gamma[%s;count(%s)]", joinInts(n.Cols), count)
	}
	return n.Kind.String()
}
