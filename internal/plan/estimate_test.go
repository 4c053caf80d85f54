package plan

import (
	"math"
	"testing"
)

// This file pins the cost model's primitives (estimate.go) to their
// arithmetic, so a change to one primitive shows up here before it
// silently reshapes every rewrite decision.

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestCostPrimitives pins the per-operator estimates that need no key
// or column arithmetic.
func TestCostPrimitives(t *testing.T) {
	b := estBase(100)
	approx(t, "estBase.Rows", b.Rows, 100)
	approx(t, "estBase.Distinct", b.Distinct, 100)

	approx(t, "estSelect.Rows", estSelect(b).Rows, 50)
	approx(t, "estSelectConst.Rows", estSelectConst(b).Rows, 25)

	u := estUnion(card{Rows: 80, Distinct: 40}, card{Rows: 20, Distinct: 10})
	approx(t, "estUnion.Rows", u.Rows, 50)
	approx(t, "estUnion.Distinct", u.Distinct, 50)

	d := estDiff(card{Rows: 7, Distinct: 3})
	approx(t, "estDiff.Rows", d.Rows, 7)
	approx(t, "estDiff.Distinct", d.Distinct, 3)

	approx(t, "estConstTag.Rows", estConstTag(b).Rows, 100)
}

// TestCostProjectDistinct pins the k/a information-share guess and its
// exact endpoints, including duplicate column lists.
func TestCostProjectDistinct(t *testing.T) {
	child := card{Rows: 400, Distinct: 100}
	approx(t, "half the columns", projectDistinct(child, []int{1}, 2), 10)
	approx(t, "all columns", projectDistinct(child, []int{1, 2}, 2), 100)
	approx(t, "duplicated column counts once", projectDistinct(child, []int{1, 1}, 2), 10)
	approx(t, "zero columns", projectDistinct(child, nil, 2), 1)
	approx(t, "zero arity", projectDistinct(child, nil, 0), 1)

	p := estProject(child, []int{1}, 2)
	approx(t, "estProject passes rows through", p.Rows, 400)
	approx(t, "estProject shrinks distinct", p.Distinct, 10)
}

// TestCostJoinArithmetic pins key counts, bucket sizes, and the join
// estimate built from them.
func TestCostJoinArithmetic(t *testing.T) {
	side := card{Rows: 100, Distinct: 100}
	approx(t, "one of two key columns", keyDistinct(side, 1, 2), 10)
	approx(t, "all key columns", keyDistinct(side, 2, 2), 100)
	approx(t, "no key columns", keyDistinct(side, 0, 2), 1)
	approx(t, "floor at one key", keyDistinct(card{Distinct: 0.25}, 1, 2), 1)
	approx(t, "m beyond arity clamps", keyDistinct(side, 5, 2), 100)

	approx(t, "θ-only join scans everything", probeBucket(side, 0, 2), 100)
	approx(t, "hash bucket", probeBucket(side, 1, 2), 10)

	j := estJoin(card{Rows: 8, Distinct: 8}, 10)
	approx(t, "estJoin.Rows", j.Rows, 80)
	approx(t, "estJoin.Distinct", j.Distinct, 80)
}

// TestCostSemijoinArithmetic pins the containment selectivity and the
// semijoin/antijoin complements built on it.
func TestCostSemijoinArithmetic(t *testing.T) {
	approx(t, "containment ratio", semijoinSelectivity(100, 25), 0.25)
	approx(t, "capped at one", semijoinSelectivity(10, 40), 1)
	approx(t, "degenerate probe", semijoinSelectivity(0, 40), 1)

	probe := card{Rows: 200, Distinct: 80}
	sj := estSemijoin(probe, 0.25)
	approx(t, "estSemijoin.Rows", sj.Rows, 50)
	approx(t, "estSemijoin.Distinct", sj.Distinct, 20)
	aj := estAntijoin(probe, 0.25)
	approx(t, "estAntijoin.Rows", aj.Rows, 150)
	approx(t, "estAntijoin complements to probe", sj.Rows+aj.Rows, probe.Rows)
	approx(t, "estAntijoin floors at zero", estAntijoin(probe, 1.5).Rows, 0)
}

// TestCostGamma pins the group-count estimate and its grand-aggregate
// floor.
func TestCostGamma(t *testing.T) {
	child := card{Rows: 400, Distinct: 100}
	approx(t, "grouped", estGamma(child, []int{1}, 2).Rows, 10)
	approx(t, "grand aggregate floors at one", estGamma(card{}, nil, 2).Rows, 1)
}
