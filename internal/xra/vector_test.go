package xra

import (
	"fmt"
	"runtime"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/workload"
)

// vecBatchSizes mirrors the ra/sa vectorized suites' sweep.
var vecBatchSizes = []int{1, 2, 1024}

func setJoinDatabase(seed int64) *rel.Database {
	r, s := workload.RandomSetJoin(seed).Generate()
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, tp := range r.Tuples() {
		d.Add("R", tp)
	}
	for _, tp := range s.Tuples() {
		d.Add("S", tp)
	}
	return d
}

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

// xraVectorCorpus covers γ in all keying configurations (count(*)
// with and without required full-row dedup, count(col), grand
// aggregate), wrapped RA subplans including blocking sinks, and both
// join strategies.
func xraVectorCorpus() []struct {
	name string
	e    Expr
} {
	r2 := &Wrap{E: ra.R("R", 2)}
	s2 := &Wrap{E: ra.R("S", 2)}
	projR := &Wrap{E: ra.NewProject([]int{2, 1}, ra.R("R", 2))} // duplicate-capable input
	return []struct {
		name string
		e    Expr
	}{
		{"wrap-stored", r2},
		{"wrap-diff", &Wrap{E: ra.NewDiff(ra.R("R", 2), ra.R("S", 2))}},
		{"wrap-union", &Wrap{E: ra.NewUnion(ra.R("R", 2), ra.R("S", 2))}},
		{"gamma-star", NewGamma([]int{1}, 0, r2)},
		{"gamma-star-dedup", NewGamma([]int{1}, 0, projR)},
		{"gamma-distinct", NewGamma([]int{1}, 2, r2)},
		{"gamma-grand", NewGamma(nil, 1, r2)},
		{"gamma-multi-key", NewGamma([]int{2, 1}, 0, r2)},
		{"join-eq", NewJoin(r2, ra.Eq(2, 1), s2)},
		{"join-theta-wrapped-stored", NewJoin(r2, ra.Lt(2, 1), s2)},
		{"join-theta-computed", NewJoin(r2, ra.Lt(2, 1), NewProject([]int{1, 2}, s2))},
		{"gamma-of-join", NewGamma([]int{1}, 3, NewJoin(r2, ra.Eq(2, 1), s2))},
		{"project-of-gamma", NewProject([]int{2}, NewGamma([]int{1}, 2, r2))},
	}
}

// TestVectorizedXRACorpus is the vectorized↔streamed equivalence suite
// for the extended algebra: every corpus plan on randomized databases
// must match the tuple path byte for byte at batch sizes 1, 2 and 1024
// — flows, resident peaks and result order included.
func TestVectorizedXRACorpus(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range xraVectorCorpus() {
			checkVectorized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d)
		}
	}
}

// TestVectorizedGammaDivision sweeps randomized division workloads
// through the Section 5 γ-division expressions — the ST5/ST6 plans.
func TestVectorizedGammaDivision(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkVectorized(t, fmt.Sprintf("containment seed %d", seed), ContainmentDivision("R", "S"), d)
		checkVectorized(t, fmt.Sprintf("equality seed %d", seed), EqualityDivision("R", "S"), d)
	}
}

// TestVectorizedGammaEmpty pins the SQL-style zero row of the grand
// aggregate over an empty input, and the empty grouped aggregate.
func TestVectorizedGammaEmpty(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	r2 := &Wrap{E: ra.R("R", 2)}
	checkVectorized(t, "grand-empty", NewGamma(nil, 1, r2), d)
	checkVectorized(t, "grouped-empty", NewGamma([]int{1}, 0, r2), d)
}

// TestVectorizedXRAOnShardedStores runs the vectorized XRA executor
// over hash-partitioned stores at shard counts 1, 2 and 4: results
// must be byte-identical to the tuple-at-a-time streamed evaluation at
// every batch size. (Trace parity is asserted on the in-memory store
// above; a sharded theta replay materializes its stored side, so only
// emission is compared here.)
func TestVectorizedXRAOnShardedStores(t *testing.T) {
	r2 := &Wrap{E: ra.R("R", 2)}
	exprs := []struct {
		name string
		e    Expr
	}{
		{"gamma-division", ContainmentDivision("R", "S")},
		{"gamma-star", NewGamma([]int{1}, 0, r2)},
	}
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, shards := range []int{1, 2, 4} {
			sdb := shard.FromStore(d, shards)
			for _, c := range exprs {
				want := EvalStreamed(c.e, sdb).Tuples()
				for _, size := range vecBatchSizes {
					res, _ := EvalVectorizedTracedSized(c.e, sdb, size)
					got := res.Tuples()
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

// TestGammaBatchCursorContract pins NewGammaBatchCursor's validation
// panics.
func TestGammaBatchCursorContract(t *testing.T) {
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
	mustPanic("group-col", "xra: group column 3 out of range 1..2", func() {
		NewGammaBatchCursor(nil, []int{3}, 0, 2, false, &ra.Meter{}, 0)
	})
	mustPanic("count-col", "xra: count column 5 out of range 0..2", func() {
		NewGammaBatchCursor(nil, []int{1}, 5, 2, false, &ra.Meter{}, 0)
	})
}

// allocatedBytes returns the bytes f allocates (live or not).
func allocatedBytes(f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestVectorizedGammaAllocations pins γ's allocation profile: at fixed
// rows per group, the bytes EvalVectorized allocates are proportional
// to the group count — no index is recopied per new group, and no
// per-group structure is sized by the counted-value dictionary.
func TestVectorizedGammaAllocations(t *testing.T) {
	const rowsPerGroup = 4
	database := func(groups int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"G": 3}))
		for g := 0; g < groups; g++ {
			for j := 0; j < rowsPerGroup; j++ {
				// Every counted value is new to the value dictionary.
				d.AddInts("G", int64(g), int64(g%97), int64(g*rowsPerGroup+j))
			}
		}
		return d
	}
	g3 := &Wrap{E: ra.R("G", 3)}
	for _, c := range []struct {
		name string
		e    Expr
	}{
		{"one-column key, count(*)", NewGamma([]int{1}, 0, g3)},
		{"one-column key, count(col)", NewGamma([]int{1}, 3, g3)},
		{"two-column key, count(*)", NewGamma([]int{1, 2}, 0, g3)},
		{"two-column key, count(col)", NewGamma([]int{1, 2}, 3, g3)},
	} {
		const groups = 10000
		small, large := database(groups), database(2*groups)
		run := func(d *rel.Database, want int) func() {
			return func() {
				if got := EvalVectorized(c.e, d).Len(); got != want {
					t.Fatalf("%s: %d groups, want %d", c.name, got, want)
				}
			}
		}
		base := allocatedBytes(run(small, groups))
		doubled := allocatedBytes(run(large, 2*groups))
		if doubled > 2.2*base {
			t.Errorf("%s: %.0f bytes at %d groups, %.0f at %d (×%.2f); want at most ×2.2",
				c.name, base, groups, doubled, 2*groups, doubled/base)
		}
	}
}

// TestVectorizedGammaMemoryIsMetered runs the γ-division on a hostile
// shape — many small groups whose counted values range over a divisor
// as large as the group count — and requires the bytes allocated to be
// bounded by the resident entries the meter (and so a governor's
// MaxResident budget) saw.
func TestVectorizedGammaMemoryIsMetered(t *testing.T) {
	const groups = 8000
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for g := 0; g < groups; g++ {
		d.AddInts("R", int64(g), int64(2*g%groups))
		d.AddInts("R", int64(g), int64((2*g+1)%groups))
		d.AddInts("S", int64(g))
	}
	var tr *Trace
	bytes := allocatedBytes(func() { _, tr = EvalVectorizedTraced(ContainmentDivision("R", "S"), d) })
	if perEntry := bytes / float64(tr.MaxResident); perEntry > 400 {
		t.Errorf("%.0f bytes allocated for %d metered resident entries (%.0f B/entry); want at most 400",
			bytes, tr.MaxResident, perEntry)
	}
}
