package plan

import (
	"math"

	"radiv/internal/plan/cost"
	"radiv/internal/rel"
)

// This file prices IR plans with the shared estimate primitives of
// internal/plan/cost. Every rewrite rule guards on estFlow — the total
// tuple flow a streamed execution of the plan would emit, the quantity
// the paper's linear/quadratic dichotomy is about — so a rule only
// fires when the estimated flow drops (or, for semijoin reduction, the
// estimated resident state drops by more than the added flow). The
// executor's two physical choices — the projection dedup filter and
// the result sink's initial size — are priced here too.

// estimate guesses the (rows, distinct) a streamed execution of the
// subplan emits, using exact base-relation cardinalities from the
// bound store.
func estimate(d rel.ReadStore, n *Node) cost.Estimate {
	switch n.Kind {
	case KRel:
		if _, ok := d.Schema().Arity(n.Name); !ok {
			return cost.Estimate{}
		}
		return cost.Base(float64(d.View(n.Name).Len()))
	case KUnion:
		return cost.Union(estimate(d, n.Kids[0]), estimate(d, n.Kids[1]))
	case KDiff:
		return cost.Diff(estimate(d, n.Kids[0]))
	case KProject:
		return cost.Project(estimate(d, n.Kids[0]), n.Cols, n.Kids[0].arity)
	case KSelect:
		return cost.Select(estimate(d, n.Kids[0]))
	case KSelectConst:
		return cost.SelectConst(estimate(d, n.Kids[0]))
	case KConstTag:
		return cost.ConstTag(estimate(d, n.Kids[0]))
	case KJoin:
		probe, build := estimate(d, n.Kids[0]), estimate(d, n.Kids[1])
		m := len(n.Cond.EqPairs())
		bucket := cost.JoinBucket(build, m, n.Kids[1].arity)
		// The planner prices equi-joins with the same partner
		// selectivity semijoins use — matched probe rows times the
		// per-match bucket — so a join and its semijoin rewrite are
		// compared consistently; without the selectivity factor the
		// linearize rule would "win" on any join by estimate artifact.
		if m > 0 {
			probeKeys := cost.KeyDistinct(probe, m, n.Kids[0].arity)
			buildKeys := cost.KeyDistinct(build, m, n.Kids[1].arity)
			sel := cost.SemijoinSelectivity(probeKeys, buildKeys)
			probe = cost.Estimate{Rows: probe.Rows * sel, Distinct: probe.Distinct * sel}
		}
		return cost.Join(probe, bucket)
	case KSemijoin:
		probe := estimate(d, n.Kids[0])
		return cost.Semijoin(probe, semijoinSel(d, n))
	case KAntijoin:
		probe := estimate(d, n.Kids[0])
		return cost.Antijoin(probe, semijoinSel(d, n))
	case KGamma:
		return cost.Gamma(estimate(d, n.Kids[0]), n.Cols, n.Kids[0].arity)
	}
	return cost.Estimate{}
}

// semijoinSel estimates the fraction of probe tuples with a partner:
// the key-count containment ratio for equality conditions, one half
// for pure-theta conditions (the standard comparison guess).
func semijoinSel(d rel.ReadStore, n *Node) float64 {
	m := len(n.Cond.EqPairs())
	if m == 0 {
		return 0.5
	}
	probeKeys := cost.KeyDistinct(estimate(d, n.Kids[0]), m, n.Kids[0].arity)
	buildKeys := cost.KeyDistinct(estimate(d, n.Kids[1]), m, n.Kids[1].arity)
	return cost.SemijoinSelectivity(probeKeys, buildKeys)
}

// estFlow is the estimated total tuple flow of the plan: the sum of
// every node's emitted rows, shared subtrees counted once per
// occurrence (the executor evaluates them once per occurrence too).
func estFlow(d rel.ReadStore, n *Node) float64 {
	total := 0.0
	Walk(n, func(x *Node) { total += estimate(d, x).Rows })
	return total
}

// joinBucket estimates how many build-side candidates one probe tuple
// of the join scans.
func joinBucket(d rel.ReadStore, n *Node) float64 {
	return cost.JoinBucket(estimate(d, n.Kids[1]), len(n.Cond.EqPairs()), n.Kids[1].arity)
}

// dedupProjection decides the pipelined dedup filter for one
// projection node. Projections defer deduplication to the consuming
// sink, which keeps their state at zero — but a projection feeding a
// join's probe side then replays the join's candidate scan once per
// duplicate probe tuple. The filter spends one resident tuple per
// distinct projected tuple to make every probe unique, so it is
// inserted exactly when the estimated duplicate fan-in times bucket —
// the consuming join's per-probe candidate scan, 0 when the projection
// does not feed a probe input — outweighs that resident cost.
func dedupProjection(d rel.ReadStore, n *Node, bucket float64) bool {
	if bucket <= 1 {
		return false // nothing to save: each duplicate probe is O(1)
	}
	child := estimate(d, n.Kids[0])
	distinct := cost.ProjectDistinct(child, n.Cols, n.Kids[0].arity)
	dups := child.Rows - distinct
	if dups <= 0 {
		return false
	}
	return dups*bucket > distinct
}

// sinkHint sizes a result sink from the distinct-output estimate,
// clamped so a wild quadratic guess cannot balloon an empty result's
// allocation.
func sinkHint(d rel.ReadStore, n *Node) int {
	est := estimate(d, n).Distinct
	if math.IsNaN(est) || est <= 0 {
		return 0
	}
	return int(math.Min(est, 1<<16))
}
