package plan_test

import (
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/xra"
)

// This file holds the rows of the executor suite (executor_test.go):
// the three algebras' operator corpora and the division and set-join
// idioms, each as the IR tree of the expression as written.

// The workload.RandomSetJoin draws the corpora and the set-join idioms
// run on. They are picked small (R and S of 5 to 130 tuples): the
// products are quadratic and every case runs 80 times.
var (
	corpusSeeds  = []int64{1, 3, 6}
	setJoinSeeds = []int64{10, 11, 12, 18}
)

// suiteCase is one row: a name, unique within the suite, and the plan
// as written.
type suiteCase struct {
	name string
	root *plan.Node
}

// raCorpus covers every RA operator in every physical configuration the
// builder distinguishes: union at the root and nested, difference with
// stored and computed subtrahends, both selections and the tag,
// projections, equi-joins on one to three atoms and with a residual,
// θ-only joins and products against stored and computed right sides,
// and a probe-side projection the dedup filter may take.
func raCorpus() []struct {
	name string
	e    ra.Expr
} {
	r2 := ra.R("R", 2)
	s2 := ra.R("S", 2)
	idS := ra.NewProject([]int{1, 2}, s2) // same as S, but not a stored relation
	tag3 := func(e ra.Expr) ra.Expr { return ra.NewConstTag(rel.Int(7), e) }
	return []struct {
		name string
		e    ra.Expr
	}{
		{"union", ra.NewUnion(r2, s2)},
		{"union-root-of-diff", ra.NewUnion(ra.NewDiff(r2, s2), ra.NewDiff(s2, r2))},
		{"union-nested", ra.NewProject([]int{1}, ra.NewUnion(r2, s2))},
		{"diff-stored-subtrahend", ra.NewDiff(r2, s2)},
		{"diff-computed-subtrahend", ra.NewDiff(r2, idS)},
		{"select-lt", ra.NewSelect(1, ra.OpLt, 2, r2)},
		{"select-ne", ra.NewSelect(1, ra.OpNe, 2, r2)},
		{"select-eq", ra.NewSelect(1, ra.OpEq, 2, r2)},
		{"select-const", ra.NewSelectConst(2, rel.Int(1), r2)},
		{"select-const-absent", ra.NewSelectConst(2, rel.Str("no-such-value"), r2)},
		{"const-tag", tag3(r2)},
		{"project-swap-dup", ra.NewProject([]int{2, 1, 1}, r2)},
		{"equi-join-1", ra.NewJoin(r2, ra.Eq(2, 1), s2)},
		{"equi-join-2", ra.NewJoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2)},
		{"equi-join-3", ra.NewJoin(tag3(r2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), tag3(s2))},
		{"equi-join-residual", ra.NewJoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"theta-join-stored", ra.NewJoin(r2, ra.Lt(2, 1), s2)},
		{"theta-join-computed", ra.NewJoin(r2, ra.Lt(2, 1), idS)},
		{"product", ra.Product(r2, s2)},
		{"product-computed-right", ra.Product(r2, idS)},
		{"semijoin-shape", ra.EquiSemijoinExpr(r2, ra.Eq(2, 1), ra.NewProject([]int{1}, s2))},
		{"probe-side-projection", ra.NewJoin(ra.NewProject([]int{1}, r2), ra.Eq(1, 1), s2)},
	}
}

// saCorpus covers the semijoin and antijoin in each build strategy —
// distinct-key table, full build rows with residual atoms, a θ-only
// table over a stored right side's own columns and over a computed
// one's copy — alone and nested. SA's other operators are the IR nodes raCorpus
// already runs.
func saCorpus() []struct {
	name string
	e    sa.Expr
} {
	r2 := sa.R("R", 2)
	s2 := sa.R("S", 2)
	idS := sa.NewProject([]int{1, 2}, s2)
	tag3 := func(e sa.Expr) sa.Expr { return sa.NewConstTag(rel.Int(7), e) }
	return []struct {
		name string
		e    sa.Expr
	}{
		{"semijoin-eq1", sa.NewSemijoin(r2, ra.Eq(2, 1), s2)},
		{"semijoin-eq2", sa.NewSemijoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2)},
		{"semijoin-eq3", sa.NewSemijoin(tag3(r2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), tag3(s2))},
		{"semijoin-eq-residual", sa.NewSemijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"semijoin-theta-stored", sa.NewSemijoin(r2, ra.Lt(2, 1), s2)},
		{"semijoin-theta-computed", sa.NewSemijoin(r2, ra.Lt(2, 1), idS)},
		{"antijoin-eq1", sa.NewAntijoin(r2, ra.Eq(2, 1), s2)},
		{"antijoin-eq-residual", sa.NewAntijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpGt, 2)), s2)},
		{"antijoin-theta-stored", sa.NewAntijoin(r2, ra.Ne(1, 2), s2)},
		{"project-antijoin", sa.NewProject([]int{2}, sa.NewAntijoin(r2, ra.Eq(1, 1), s2))},
		{"union-semijoin", sa.NewUnion(sa.NewSemijoin(r2, ra.Eq(2, 1), s2), s2)},
		{"semijoin-of-semijoin", sa.NewSemijoin(sa.NewSemijoin(r2, ra.Eq(2, 1), s2), ra.Eq(1, 2), s2)},
		{"nested-semijoin", sa.NewSemijoin(r2, ra.Eq(2, 1), sa.NewProject([]int{1}, sa.NewSemijoin(s2, ra.Eq(2, 2), r2)))},
		{"nested-anti-in-diff", sa.NewDiff(sa.NewProject([]int{1}, r2), sa.NewProject([]int{1}, sa.NewAntijoin(r2, ra.Eq(2, 2), s2)))},
	}
}

// xraCorpus covers γ in every keying configuration — count(*) with and
// without the full-row dedup a duplicate-capable input forces,
// count(col), the grand aggregate, one and two key columns — under and
// over joins and projections, and the wrapped-difference input whose
// left side streams undeduplicated.
func xraCorpus() []struct {
	name string
	e    xra.Expr
} {
	r2 := &xra.Wrap{E: ra.R("R", 2)}
	s2 := &xra.Wrap{E: ra.R("S", 2)}
	return []struct {
		name string
		e    xra.Expr
	}{
		{"gamma-star", xra.NewGamma([]int{1}, 0, r2)},
		{"gamma-star-dedup", xra.NewGamma([]int{1}, 0, xra.NewProject([]int{2, 1}, r2))},
		{"gamma-star-wrapped-project", xra.NewGamma([]int{1}, 0, &xra.Wrap{E: ra.NewProject([]int{2, 1}, ra.R("R", 2))})},
		{"gamma-distinct", xra.NewGamma([]int{1}, 2, r2)},
		{"gamma-grand", xra.NewGamma(nil, 1, r2)},
		{"gamma-grand-star", xra.NewGamma(nil, 0, r2)},
		{"gamma-multi-key", xra.NewGamma([]int{2, 1}, 0, r2)},
		{"gamma-two-cols", xra.NewGamma([]int{2, 1}, 1, r2)},
		{"join-theta-computed", xra.NewJoin(r2, ra.Lt(2, 1), xra.NewProject([]int{1, 2}, s2))},
		{"gamma-of-join", xra.NewGamma([]int{1}, 3, xra.NewJoin(r2, ra.Eq(2, 1), s2))},
		{"project-of-gamma", xra.NewProject([]int{2}, xra.NewGamma([]int{1}, 2, r2))},
		{"project-gamma-join", xra.NewProject([]int{1}, xra.NewGamma([]int{1}, 3, xra.NewJoin(r2, ra.Eq(2, 1), s2)))},
		{"gamma-star-over-wrapped-diff", xra.NewGamma([]int{1}, 0,
			&xra.Wrap{E: ra.NewDiff(ra.NewProject([]int{1}, ra.R("R", 2)), ra.NewProject([]int{1}, ra.R("S", 2)))})},
	}
}

// corpusCases is the three corpora over the set-join schema {R/2, S/2}.
func corpusCases() []suiteCase {
	var cases []suiteCase
	for _, c := range raCorpus() {
		cases = append(cases, suiteCase{"ra/" + c.name, plan.FromRA(c.e)})
	}
	for _, c := range saCorpus() {
		cases = append(cases, suiteCase{"sa/" + c.name, plan.FromSA(c.e)})
	}
	for _, c := range xraCorpus() {
		cases = append(cases, suiteCase{"xra/" + c.name, plan.FromXRA(c.e)})
	}
	return cases
}

// divisionCases is the division family over {R/2, S/1}: the classical
// quadratic RA expressions, the semijoin and antijoin shapes that are
// SA's linear core of it (division itself is out of SA's reach,
// Proposition 26), and Section 5's γ-expressions, at the root and below
// another operator.
func divisionCases() []suiteCase {
	r2, s1 := sa.R("R", 2), sa.R("S", 1)
	return []suiteCase{
		{"division/ra-containment", plan.FromRA(ra.DivisionExpr("R", "S"))},
		{"division/ra-equality", plan.FromRA(ra.EqualityDivisionExpr("R", "S"))},
		{"division/sa-semijoin", plan.FromSA(sa.NewSemijoin(r2, ra.Eq(2, 1), s1))},
		{"division/sa-antijoin", plan.FromSA(sa.NewAntijoin(r2, ra.Eq(2, 1), s1))},
		{"division/sa-matched-groups", plan.FromSA(sa.NewProject([]int{1}, sa.NewSemijoin(r2, ra.Eq(2, 1), s1)))},
		{"division/sa-missed-groups", plan.FromSA(sa.NewProject([]int{1}, sa.NewAntijoin(r2, ra.Eq(2, 1), s1)))},
		{"division/sa-theta", plan.FromSA(sa.NewSemijoin(r2, ra.Lt(1, 1), s1))},
		{"division/gamma-containment", plan.FromXRA(xra.ContainmentDivision("R", "S"))},
		{"division/gamma-equality", plan.FromXRA(xra.EqualityDivision("R", "S"))},
		{"division/gamma-star", plan.FromXRA(xra.NewGamma([]int{1}, 0, &xra.Wrap{E: ra.R("R", 2)}))},
		// γ-divisions below another operator, where the executor's
		// aggregate-division operator runs as an inner node.
		{"division/gamma-under-join", plan.FromXRA(xra.NewJoin(&xra.Wrap{E: ra.R("R", 2)}, ra.Eq(1, 1), xra.ContainmentDivision("R", "S")))},
		{"division/gamma-under-gamma", plan.FromXRA(xra.NewGamma(nil, 1, xra.EqualityDivision("R", "S")))},
	}
}

// setJoinCases is the classical set-join expressions over {R/2, S/2},
// whose plans keep several blocking sinks live at once and whose inner
// semijoin shapes are where the linearize rule fires.
func setJoinCases() []suiteCase {
	return []suiteCase{
		{"setjoin/containment", plan.FromRA(ra.SetContainmentJoinExpr("R", "S"))},
		{"setjoin/equality", plan.FromRA(ra.SetEqualityJoinExpr("R", "S"))},
	}
}
