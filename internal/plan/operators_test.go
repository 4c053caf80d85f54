package plan

import (
	"context"
	"errors"
	"testing"

	"radiv/internal/exec"
	"radiv/internal/faultinject"
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// This file holds the executor's operators to the properties that need
// their internals: the build tables' allocation profile and what they
// hold, and what the operators rely on instead of checking their own
// arguments — the IR constructors' validation and the builder's choice
// of right input.

// mustPanic runs f and requires it to panic with exactly want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
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

// rowsOut drains c and returns the number of rows it emitted.
func rowsOut(c rel.BatchCursor) int {
	out := 0
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		out += b.Len()
	}
	return out
}

// operator builds n on the in-memory database d and returns its
// operator cursor, unwrapped from the flow count.
func operator(d rel.ReadStore, n *Node) rel.BatchCursor {
	c, _ := (&builder{d: d, meter: &meter{}, capacity: rel.BatchCap, dict: queryDict(d)}).batches(n)
	return c.(*countCursor).in
}

// TestKeptBatchReadsPoison proves the race build's poison check bites:
// a consumer that keeps a filter cursor's batch across a second pull
// reads ^uint32(0) in every row it kept, where rel.Batch.Reset
// overwrote them.
func TestKeptBatchReadsPoison(t *testing.T) {
	if !raceEnabled {
		t.Skip("batches are poisoned only under the race detector")
	}
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	d.AddInts("R", 1, 1)
	d.AddInts("R", 2, 2) // the first batch is kept in part: the filter's own batch
	d.AddInts("R", 3, 3) // the second batch is dropped whole
	b := &builder{d: d, meter: &meter{}, capacity: 2, dict: queryDict(d)}
	c, _ := b.batches(NSelectConst(1, rel.Int(1), NRel("R", 2)))
	first, ok := c.NextBatch()
	if !ok || first.Len() != 1 {
		t.Fatalf("first pull: ok %v, want one row", ok)
	}
	kept := [][]uint32{first.Col(0), first.Col(1)}
	if kept[0][0] != kept[1][0] {
		t.Fatalf("first pull yielded row %v, want (1, 1)", kept)
	}
	if _, ok := c.NextBatch(); ok {
		t.Fatal("second pull yielded a batch, want exhaustion")
	}
	for k, col := range kept {
		if col[0] != ^uint32(0) {
			t.Errorf("kept column %d reads ID %d after the second pull, want the poison ID", k, col[0])
		}
	}
}

// TestJoinBatchCursorContract pins what the join and semijoin cursors
// rely on: NSemijoin and NAntijoin refuse an empty condition, and the
// builder hands either operator exactly one right input — a build
// cursor whenever the condition has an equality atom, and a stored view
// consumed in place only for a θ-only condition over a stored relation.
func TestJoinBatchCursorContract(t *testing.T) {
	r := NRel("R", 2)
	mustPanic(t, "semijoin-no-cond", "plan: semijoin requires at least one condition atom", func() { NSemijoin(r, nil, r) })
	mustPanic(t, "antijoin-no-cond", "plan: antijoin requires at least one condition atom", func() { NAntijoin(r, nil, r) })

	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	computed := NProject([]int{2, 1}, r)
	for _, tc := range []struct {
		name    string
		n       *Node
		inPlace bool
	}{
		{"equality semijoin over a stored relation", NSemijoin(r, ra.Eq(1, 1), r), false},
		{"θ-only antijoin over a stored relation", NAntijoin(r, ra.Lt(1, 1), r), true},
		{"θ-only semijoin over a computed right side", NSemijoin(r, ra.Lt(1, 1), computed), false},
		{"equality join over a stored relation", NJoin(r, ra.Eq(1, 1), r), false},
		{"θ-only join over a stored relation", NJoin(r, ra.Lt(1, 1), r), true},
		{"product over a stored relation", NJoin(r, nil, r), true},
		{"θ-only join over a computed right side", NJoin(r, ra.Lt(1, 1), computed), false},
	} {
		var side buildSide
		switch op := operator(d, tc.n).(type) {
		case *joinCursor:
			side = op.buildSide
		case *semijoinCursor:
			side = op.buildSide
		default:
			t.Fatalf("%s: operator %T", tc.name, op)
		}
		if (side.buildC == nil) == (side.stored == nil) || (side.stored != nil) != tc.inPlace {
			t.Errorf("%s: build cursor %v, stored view %v; want the stored view alone: %v", tc.name, side.buildC != nil, side.stored != nil, tc.inPlace)
		}
	}
}

// TestGammaBatchCursorContract pins NGamma's column validation, which
// the γ cursor relies on.
func TestGammaBatchCursorContract(t *testing.T) {
	r := NRel("R", 2)
	mustPanic(t, "group-col", "plan: group column 3 out of range 1..2", func() { NGamma([]int{3}, 0, r) })
	mustPanic(t, "count-col", "plan: count column 5 out of range 0..2", func() { NGamma([]int{1}, 5, r) })
}

// queryDict is the query dictionary a plan over d decodes through: a
// result's, based on d's.
func queryDict(d rel.ReadStore) *rel.Interner { return rel.NewRelationOver(0, d.Dict()).Interner() }

// buildDatabase holds B, 100 000 rows with 100 000 distinct
// (a, a mod 7) keys, and the probe rows P.
func buildDatabase(probe ...[]int64) *rel.Database {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"B": 2, "P": 2}))
	for i := 0; i < 100000; i++ {
		d.AddInts("B", int64(i), int64(i%7))
	}
	for _, p := range probe {
		d.AddInts("P", p...)
	}
	return d
}

// TestHashJoinBuildAllocations holds the join's build table to a
// number of allocations logarithmic in its size: over 100 000 distinct
// keys its columns, dictionary and index grow by doubling, where a
// slice per key would make 100 000 allocations; over the one empty key
// of a θ-only condition its columns grow by doubling too.
func TestHashJoinBuildAllocations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probe []int64
		cond  ra.Cond
	}{
		{"equality", []int64{5, 5}, ra.EqAll([2]int{1, 1}, [2]int{2, 2})},
		{"θ-only", []int64{1, 5}, ra.Cond{ra.A(1, ra.OpGt, 1)}},
	} {
		d := buildDatabase(tc.probe)
		out := 0
		allocs := testing.AllocsPerRun(1, func() {
			out = rowsOut(&joinCursor{left: d.Rel("P").BatchScan(), buildSide: buildSide{buildC: d.Rel("B").BatchScan(),
				equiKeys: splitEquiKeys(tc.cond), meter: &meter{}, capacity: rel.BatchCap, dict: queryDict(d)}})
		})
		if out != 1 {
			t.Fatalf("%s join emitted %d rows, want 1", tc.name, out)
		}
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > 1000 {
			t.Errorf("a %s join over a 100000-row build side made %.0f allocations, want at most 1000", tc.name, allocs)
		}
	}
}

// TestResidualSemijoinBuildAllocations holds the semijoin's build
// table for a condition with a residual atom — every build row kept,
// chained per key — to a number of allocations logarithmic in its
// size: 100 000 distinct keys must not cost a slice per key.
func TestResidualSemijoinBuildAllocations(t *testing.T) {
	d := buildDatabase([]int64{5, 9}, []int64{5, 1})
	out := 0
	allocs := testing.AllocsPerRun(1, func() {
		out = rowsOut(&semijoinCursor{filter: filter{in: d.Rel("P").BatchScan()}, buildSide: buildSide{buildC: d.Rel("B").BatchScan(),
			equiKeys: splitEquiKeys(ra.Eq(1, 1).And(ra.A(2, ra.OpGt, 2))), meter: &meter{}, dict: queryDict(d)}, keep: true})
	})
	if out != 1 {
		t.Fatalf("semijoin kept %d rows, want 1", out)
	}
	t.Logf("%.0f allocations", allocs)
	if allocs > 1000 {
		t.Errorf("a residual semijoin over 100000 distinct keys made %.0f allocations, want at most 1000", allocs)
	}
}

// TestZeroKeyTableHeld pins what the build table of a θ-only condition
// (zero key columns) holds on each kind of right side: a stored
// in-memory relation's own ID columns, charging nothing; a computed
// side's n rows; and a stored view on any other backend (here a
// faultinject wrapper) copied, n rows, through the meter's guard, so a
// governed build trips its budget within one batch.
func TestZeroKeyTableHeld(t *testing.T) {
	d := buildDatabase()
	n := d.Rel("B").Len()
	dict := queryDict(d)
	for _, tc := range []struct {
		name   string
		build  rel.BatchCursor
		stored rel.StoredRel
		held   int
	}{
		{"stored in-memory relation", nil, d.Rel("B"), 0},
		{"computed right side", d.Rel("B").BatchScan(), nil, n},
		{"wrapped stored view", nil, faultinject.Wrap(d, faultinject.Fault{}).View("B"), n},
	} {
		m := &meter{}
		tb := (&buildSide{buildC: tc.build, stored: tc.stored, meter: m, capacity: rel.BatchCap, dict: dict}).build(false)
		if tb.n != n || tb.held != tc.held || m.cur != tc.held {
			t.Errorf("%s: %d rows, held %d, meter %d; want %d rows, held and metered %d", tc.name, tb.n, tb.held, m.cur, n, tc.held)
		}
		if tb.release(m); m.cur != 0 {
			t.Errorf("%s: meter reads %d after release, want 0", tc.name, m.cur)
		}
	}

	const budget, size = 100, 16
	st := faultinject.Wrap(d, faultinject.Fault{Rel: "B"})
	var err error
	func() {
		g := exec.NewGovernor(context.Background(), budget)
		defer g.Recover(&err)
		(&buildSide{stored: st.View("B"), meter: &meter{gov: g}, capacity: size, dict: dict}).build(false)
	}()
	var be *exec.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("governed copy of a wrapped view: error %v, want a *exec.BudgetError", err)
	}
	if rows := st.Rows(); rows > budget+size {
		t.Errorf("governed copy of a wrapped view: the budget tripped after %d of %d rows; want at most one batch past %d", rows, n, budget)
	}
}
