package sa

import (
	"fmt"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/workload"
)

// vecBatchSizes mirrors the ra vectorized suite's sweep: degenerate
// single-row batches, a tiny batch, and the default capacity.
var vecBatchSizes = []int{1, 2, 1024}

// checkVectorized runs the tuple-at-a-time streaming executor and the
// vectorized executor at every sweep batch size, asserting
// byte-identical emission (same tuples, same insertion order),
// identical per-step flow counts, identical MaxResident, and that no
// batch leaks from the pool.
func checkVectorized(t *testing.T, name string, e Expr, d rel.ReadStore) {
	t.Helper()
	want, wt := EvalStreamedTraced(e, d)
	wantT := want.Tuples()
	for _, size := range vecBatchSizes {
		liveBefore, _, _ := rel.BatchPoolStats()
		got, gt := EvalVectorizedTracedSized(e, d, size)
		liveAfter, _, _ := rel.BatchPoolStats()
		if liveAfter != liveBefore {
			t.Fatalf("%s size=%d: batch leak: %d batches live before, %d after", name, size, liveBefore, liveAfter)
		}
		gotT := got.Tuples()
		if len(gotT) != len(wantT) {
			t.Fatalf("%s size=%d: vectorized result has %d tuples, streamed %d", name, size, len(gotT), len(wantT))
		}
		for i := range wantT {
			if !wantT[i].Equal(gotT[i]) {
				t.Fatalf("%s size=%d: tuple %d differs: vectorized %v, streamed %v", name, size, i, gotT[i], wantT[i])
			}
		}
		if len(gt.Steps) != len(wt.Steps) {
			t.Fatalf("%s size=%d: step counts differ: vectorized %d, streamed %d", name, size, len(gt.Steps), len(wt.Steps))
		}
		for i := range wt.Steps {
			if wt.Steps[i].Expr.String() != gt.Steps[i].Expr.String() {
				t.Errorf("%s size=%d: step %d: vectorized %s, streamed %s", name, size, i, gt.Steps[i].Expr, wt.Steps[i].Expr)
			}
			if wt.Steps[i].Size != gt.Steps[i].Size {
				t.Errorf("%s size=%d: step %d (%s): vectorized flow %d, streamed %d",
					name, size, i, wt.Steps[i].Expr, gt.Steps[i].Size, wt.Steps[i].Size)
			}
		}
		if gt.MaxResident != wt.MaxResident {
			t.Errorf("%s size=%d: vectorized MaxResident %d, streamed %d", name, size, gt.MaxResident, wt.MaxResident)
		}
	}
}

// saVectorCorpus covers every SA operator on top of the shared batch
// substrate, with the semijoin/antijoin strategies each exercised:
// pure-equality (key-set build), equality+residual (full-row build),
// and theta-only against both a stored relation (in-place replay) and
// a computed right side (materialized).
func saVectorCorpus() []struct {
	name string
	e    Expr
} {
	r2 := R("R", 2)
	s2 := R("S", 2)
	idS := NewProject([]int{1, 2}, s2) // same as S, but not a stored relation
	return []struct {
		name string
		e    Expr
	}{
		{"stored", r2},
		{"union-root", NewUnion(r2, s2)},
		{"union-nested", NewProject([]int{1}, NewUnion(r2, s2))},
		{"diff-stored-subtrahend", NewDiff(r2, s2)},
		{"diff-streamed-subtrahend", NewDiff(r2, idS)},
		{"select", NewSelect(1, ra.OpLt, 2, r2)},
		{"select-const", NewSelectConst(2, rel.Int(1), r2)},
		{"const-tag", NewConstTag(rel.Int(7), r2)},
		{"project-swap-dup", NewProject([]int{2, 1, 1}, r2)},
		{"semijoin", NewSemijoin(r2, ra.Eq(2, 1), s2)},
		{"antijoin", NewAntijoin(r2, ra.Eq(2, 2), s2)},
		{"semijoin-2keys", NewSemijoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2)},
		{"semijoin-residual", NewSemijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"antijoin-residual", NewAntijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"semijoin-theta-stored", NewSemijoin(r2, ra.Lt(1, 2), s2)},
		{"antijoin-theta-stored", NewAntijoin(r2, ra.Lt(1, 2), s2)},
		{"semijoin-theta-streamed", NewSemijoin(r2, ra.Lt(1, 2), idS)},
		{"project-antijoin", NewProject([]int{2}, NewAntijoin(r2, ra.Eq(1, 1), s2))},
		{"union-semijoin", NewUnion(NewSemijoin(r2, ra.Eq(2, 1), s2), s2)},
		{"semijoin-of-semijoin", NewSemijoin(NewSemijoin(r2, ra.Eq(2, 1), s2), ra.Eq(1, 2), s2)},
		{"lousy-bar", LousyBarExpr()},
	}
}

// TestVectorizedSACorpus is the vectorized↔streamed equivalence suite
// for the semijoin algebra: every corpus plan on randomized databases
// must match the tuple path byte for byte at batch sizes 1, 2 and 1024
// — flows, resident peaks and result order included.
func TestVectorizedSACorpus(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range saVectorCorpus() {
			if c.name == "lousy-bar" {
				continue // needs the bar schema, covered below
			}
			checkVectorized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d)
		}
	}
	checkVectorized(t, "lousy-bar", LousyBarExpr(), workload.BeerDatabase(1, 200, 16))
}

// TestVectorizedSADivisionFamily sweeps randomized division workloads
// through the SA antijoin-division shape — the ST2/ST6 plan.
func TestVectorizedSADivisionFamily(t *testing.T) {
	e := NewProject([]int{1}, NewAntijoin(R("R", 2), ra.Eq(2, 1), R("S", 1)))
	for seed := int64(0); seed < 10; seed++ {
		checkVectorized(t, fmt.Sprintf("division seed %d", seed), e, workload.RandomDivision(seed).Database())
	}
}

// TestVectorizedSAOnShardedStores runs the vectorized SA executor over
// hash-partitioned stores at shard counts 1, 2 and 4: results must be
// byte-identical to the tuple-at-a-time streamed evaluation on the
// same store at every batch size. (Trace parity is asserted on the
// in-memory store by the suites above; a sharded theta replay
// materializes its stored side, so only emission is compared here.)
func TestVectorizedSAOnShardedStores(t *testing.T) {
	exprs := []struct {
		name string
		e    Expr
	}{
		{"division", NewProject([]int{1}, NewAntijoin(R("R", 2), ra.Eq(2, 1), R("S", 1)))},
		{"semijoin-theta", NewSemijoin(R("R", 2), ra.Lt(1, 1), R("S", 1))},
	}
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, shards := range []int{1, 2, 4} {
			sdb := shard.FromStore(d, shards)
			for _, c := range exprs {
				want := EvalStreamed(c.e, sdb).Tuples()
				for _, size := range vecBatchSizes {
					got := func() []rel.Tuple {
						res, _ := EvalVectorizedTracedSized(c.e, sdb, size)
						return res.Tuples()
					}()
					if len(got) != len(want) {
						t.Fatalf("%s seed %d shards=%d size=%d: %d tuples, want %d", c.name, seed, shards, size, len(got), len(want))
					}
					for i := range want {
						if !want[i].Equal(got[i]) {
							t.Fatalf("%s seed %d shards=%d size=%d: tuple %d is %v, want %v",
								c.name, seed, shards, size, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSemijoinBatchCursorContract pins NewSemijoinBatchCursor's
// argument panics.
func TestSemijoinBatchCursorContract(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if s, ok := r.(string); !ok || s != want {
				t.Fatalf("%s: panic %v, want %q", name, r, want)
			}
		}()
		f()
	}
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	sc := func() ra.BatchCursor { return ra.ScanBatches(d.Rel("R"), 0) }
	mustPanic("no-cond", "sa: semijoin cursor requires at least one condition atom", func() {
		NewSemijoinBatchCursor(sc(), sc(), nil, nil, true, &ra.Meter{}, 0)
	})
	mustPanic("both-sides", "sa: semijoin cursor requires exactly one of build cursor and stored relation", func() {
		NewSemijoinBatchCursor(sc(), sc(), d.Rel("R"), ra.Eq(1, 1), true, &ra.Meter{}, 0)
	})
	mustPanic("eq-needs-build", "sa: semijoin cursor with equality atoms requires a build cursor", func() {
		NewSemijoinBatchCursor(sc(), nil, d.Rel("R"), ra.Eq(1, 1), true, &ra.Meter{}, 0)
	})
}
