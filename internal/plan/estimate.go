package plan

import (
	"math"

	"radiv/internal/rel"
)

// This file is the planner's cost model: textbook selectivity guesses
// over a card of (rows, distinct) per subplan, which every rule — the
// dedup filter, linearization, join commutation, semijoin reduction —
// prices plans with, instead of each hard-wiring its own. The
// estimates are deliberately coarse — base-relation cardinalities are
// exact, everything above them uses standard guesses (1/2 per
// comparison selection, 1/4 per constant selection, k/a information
// shares for projections and join keys) — because every decision they
// feed only needs the right order of magnitude: the regimes are far
// apart whenever the choice matters.
//
// Every rewrite rule guards on estFlow — the total tuple flow a
// streamed execution of the plan would emit, the quantity the paper's
// linear/quadratic dichotomy is about — so a rule only fires when the
// estimated flow drops (or, for semijoin reduction, the estimated
// resident state drops by more than the added flow). The executor's
// two physical choices — the projection dedup filter and the result
// sink's initial size — are priced here too.

// estimate guesses the (rows, distinct) a streamed execution of the
// subplan emits, using exact base-relation cardinalities from the
// bound store.
func estimate(d rel.ReadStore, n *Node) card {
	switch n.Kind {
	case KRel:
		if _, ok := d.Schema().Arity(n.Name); !ok {
			return card{}
		}
		return estBase(float64(d.View(n.Name).Len()))
	case KUnion:
		return estUnion(estimate(d, n.Kids[0]), estimate(d, n.Kids[1]))
	case KDiff:
		return estDiff(estimate(d, n.Kids[0]))
	case KProject:
		return estProject(estimate(d, n.Kids[0]), n.Cols, n.Kids[0].arity)
	case KSelect:
		return estSelect(estimate(d, n.Kids[0]))
	case KSelectConst:
		return estSelectConst(estimate(d, n.Kids[0]))
	case KConstTag:
		return estConstTag(estimate(d, n.Kids[0]))
	case KJoin:
		probe, build := estimate(d, n.Kids[0]), estimate(d, n.Kids[1])
		m := len(n.Cond.EqPairs())
		bucket := probeBucket(build, m, n.Kids[1].arity)
		// The planner prices equi-joins with the same partner
		// selectivity semijoins use — matched probe rows times the
		// per-match bucket — so a join and its semijoin rewrite are
		// compared consistently; without the selectivity factor the
		// linearize rule would "win" on any join by estimate artifact.
		if m > 0 {
			probeKeys := keyDistinct(probe, m, n.Kids[0].arity)
			buildKeys := keyDistinct(build, m, n.Kids[1].arity)
			sel := semijoinSelectivity(probeKeys, buildKeys)
			probe = card{Rows: probe.Rows * sel, Distinct: probe.Distinct * sel}
		}
		return estJoin(probe, bucket)
	case KSemijoin:
		probe := estimate(d, n.Kids[0])
		return estSemijoin(probe, semijoinSel(d, n))
	case KAntijoin:
		probe := estimate(d, n.Kids[0])
		return estAntijoin(probe, semijoinSel(d, n))
	case KGamma:
		return estGamma(estimate(d, n.Kids[0]), n.Cols, n.Kids[0].arity)
	}
	return card{}
}

// semijoinSel estimates the fraction of probe tuples with a partner:
// the key-count containment ratio for equality conditions, one half
// for pure-theta conditions (the standard comparison guess).
func semijoinSel(d rel.ReadStore, n *Node) float64 {
	m := len(n.Cond.EqPairs())
	if m == 0 {
		return 0.5
	}
	probeKeys := keyDistinct(estimate(d, n.Kids[0]), m, n.Kids[0].arity)
	buildKeys := keyDistinct(estimate(d, n.Kids[1]), m, n.Kids[1].arity)
	return semijoinSelectivity(probeKeys, buildKeys)
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
	return probeBucket(estimate(d, n.Kids[1]), len(n.Cond.EqPairs()), n.Kids[1].arity)
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
	distinct := projectDistinct(child, n.Cols, n.Kids[0].arity)
	dups := child.Rows - distinct
	if dups <= 0 {
		return false
	}
	return dups*bucket > distinct
}

// card guesses the tuples a streamed subplan emits (Rows, duplicates
// included — projections defer dedup) and how many of them are
// distinct.
type card struct{ Rows, Distinct float64 }

// estBase is the estimate of a stored relation: exact and
// duplicate-free.
func estBase(n float64) card { return card{Rows: n, Distinct: n} }

// estSelect halves both counts per comparison selection σ_{i op j}.
func estSelect(in card) card { return card{Rows: in.Rows / 2, Distinct: in.Distinct / 2} }

// estSelectConst quarters both counts per constant selection σ_{i=c}.
func estSelectConst(in card) card { return card{Rows: in.Rows / 4, Distinct: in.Distinct / 4} }

// estUnion estimates a deduplicating union sink: the distinct counts
// add and the sink emits each at most once.
func estUnion(l, r card) card {
	d := l.Distinct + r.Distinct
	return card{Rows: d, Distinct: d}
}

// estDiff estimates a difference: the filter passes the left flow
// through.
func estDiff(l card) card { return l }

// estConstTag passes the input estimate through: τ_c changes arity,
// not cardinality.
func estConstTag(in card) card { return in }

// projectDistinct estimates the distinct output of a projection: with
// k of the child's a columns kept, each distinct child tuple keeps a
// k/a share of its identifying information, so the distinct count
// shrinks from D to D^(k/a) — exact at the endpoints (all columns: D;
// zero columns: 1) and an independence guess in between.
func projectDistinct(child card, cols []int, arity int) float64 {
	if arity <= 0 {
		return 1
	}
	seen := make(map[int]bool, len(cols))
	for _, c := range cols {
		seen[c] = true
	}
	k := len(seen)
	if k >= arity {
		return child.Distinct
	}
	return math.Pow(child.Distinct, float64(k)/float64(arity))
}

// estProject estimates a dedup-deferring projection: the row flow
// passes through, the distinct count shrinks per projectDistinct.
func estProject(child card, cols []int, arity int) card {
	return card{Rows: child.Rows, Distinct: projectDistinct(child, cols, arity)}
}

// keyDistinct estimates the distinct join keys of a side keyed on m of
// its a columns: distinct^(m/a), the same independence share
// projectDistinct uses, floored at one key.
func keyDistinct(side card, m, arity int) float64 {
	if m <= 0 || arity <= 0 {
		return 1
	}
	frac := float64(m) / float64(arity)
	if frac > 1 {
		frac = 1
	}
	keys := math.Pow(side.Distinct, frac)
	if keys < 1 {
		keys = 1
	}
	return keys
}

// probeBucket estimates how many build-side candidates one probe tuple
// scans: the whole build side for a θ-only join (no equality atoms,
// so one empty key), a hash bucket — build rows over estimated
// distinct join keys — for an equi-join with m equality atoms.
func probeBucket(build card, m, buildArity int) float64 {
	if m == 0 || buildArity <= 0 {
		return build.Rows
	}
	return build.Rows / keyDistinct(build, m, buildArity)
}

// estJoin estimates a θ-join from the probe-side estimate and the
// per-probe bucket size: every bucket candidate is assumed to pass the
// residual atoms, and joined pairs of distinct inputs are distinct.
func estJoin(probe card, bucket float64) card {
	rows := probe.Rows * bucket
	return card{Rows: rows, Distinct: rows}
}

// semijoinSelectivity estimates the fraction of probe tuples that find
// an equality partner, under the containment assumption: the smaller
// key set is contained in the larger, so the hit fraction is the key
// count ratio capped at one.
func semijoinSelectivity(probeKeys, buildKeys float64) float64 {
	if probeKeys <= 0 {
		return 1
	}
	return math.Min(buildKeys/probeKeys, 1)
}

// estSemijoin estimates l ⋉θ r from the probe estimate and the partner
// selectivity.
func estSemijoin(probe card, sel float64) card {
	return card{Rows: probe.Rows * sel, Distinct: probe.Distinct * sel}
}

// estAntijoin estimates l ▷θ r as the complement of the semijoin.
func estAntijoin(probe card, sel float64) card {
	keep := math.Max(1-sel, 0)
	return card{Rows: probe.Rows * keep, Distinct: probe.Distinct * keep}
}

// estGamma estimates γ_{groupCols, count}: one output row per distinct
// group key, floored at one row (a grand aggregate always emits).
func estGamma(child card, groupCols []int, arity int) card {
	rows := math.Max(projectDistinct(child, groupCols, arity), 1)
	return card{Rows: rows, Distinct: rows}
}
