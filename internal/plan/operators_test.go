package plan

import (
	"context"
	"errors"
	"fmt"
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
// Then it holds the difference and the dedup filter, which decide a
// batch at a time, to the compacting filter's contract
// (checkCompaction).
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

	for _, arity := range []int{1, 2} {
		t.Run(fmt.Sprintf("difference/arity=%d", arity), func(t *testing.T) { checkDifferenceContract(t, arity) })
		t.Run(fmt.Sprintf("dedup/arity=%d", arity), func(t *testing.T) { checkDedupContract(t, arity) })
	}
}

// contractRows is the length of each of the three segments of the
// compaction contract's inputs: rows all kept, rows none kept, and rows
// kept and dropped in turn. A segment is one batch of BatchCap rows.
const contractRows = rel.BatchCap

// contractSizes are the batch sizes the compaction contract runs at.
var contractSizes = []int{1, 7, rel.BatchCap}

// scriptedCursor yields prepared batches, each a batch of its own, and
// records the last one it yielded and the row each starts at.
type scriptedCursor struct {
	batches []*rel.Batch
	start   map[*rel.Batch]int
	last    *rel.Batch
}

// script cuts the rows of cols into fresh batches of size rows, with an
// empty batch before every third one and one at the end.
func script(cols [][]uint32, size int) *scriptedCursor {
	c := &scriptedCursor{start: map[*rel.Batch]int{}}
	n := len(cols[0])
	for lo, i := 0, 0; lo <= n; lo, i = lo+size, i+1 {
		if i%3 == 0 || lo == n {
			c.batches = append(c.batches, rel.NewBatchSized(len(cols), size))
		}
		if lo == n {
			break
		}
		hi := min(n, lo+size)
		b := rel.NewBatchSized(len(cols), size)
		for k, col := range cols {
			copy(b.WritableCol(k), col[lo:hi])
		}
		b.SetLen(hi - lo)
		c.start[b] = lo
		c.batches = append(c.batches, b)
	}
	return c
}

func (c *scriptedCursor) NextBatch() (*rel.Batch, bool) {
	if len(c.batches) == 0 {
		return nil, false
	}
	c.last, c.batches = c.batches[0], c.batches[1:]
	return c.last, true
}

// checkCompaction drains c, a compacting operator over in, which
// yields the rows of cols, and holds it to the filter contract against
// keep, the per-row reference: every batch it yields is nonempty and
// holds exactly the kept rows of the last input batch, in order; a
// batch whose every row is kept is yielded as that batch itself; and
// no input batch with a kept row is passed over. It fails unless the
// input held a batch of each kind — all kept, none kept and, above
// batch size 1, partly kept — and returns the meter's reading after.
func checkCompaction(t *testing.T, name string, c rel.BatchCursor, in *scriptedCursor, cols [][]uint32, keep []bool, size int) {
	t.Helper()
	kinds := map[string]int{}
	for _, b := range in.batches {
		if b.Len() == 0 {
			continue
		}
		lo, kept := in.start[b], 0
		for _, k := range keep[lo : lo+b.Len()] {
			if k {
				kept++
			}
		}
		switch kept {
		case b.Len():
			kinds["all"]++
		case 0:
			kinds["none"]++
		default:
			kinds["part"]++
		}
	}
	if kinds["all"] == 0 || kinds["none"] == 0 || (size > 1 && kinds["part"] == 0) {
		t.Fatalf("%s: input batches all/none/partly kept %d/%d/%d: want each kind", name, kinds["all"], kinds["none"], kinds["part"])
	}
	yields := 0
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		yields++
		src := in.last
		lo := in.start[src]
		if b.Len() == 0 {
			t.Fatalf("%s: yielded an empty batch", name)
		}
		var want []int
		for row := range src.Len() {
			if keep[lo+row] {
				want = append(want, lo+row)
			}
		}
		if (b == src) != (len(want) == src.Len()) {
			t.Fatalf("%s: input batch at row %d, %d of %d rows kept: yielded as itself %v", name, lo, len(want), src.Len(), b == src)
		}
		if b.Len() != len(want) {
			t.Fatalf("%s: input batch at row %d: yielded %d rows, want %d", name, lo, b.Len(), len(want))
		}
		for i, row := range want {
			for k, col := range cols {
				if got := b.Col(k)[i]; got != col[row] {
					t.Fatalf("%s: input batch at row %d: output row %d column %d is ID %d, want row %d's %d", name, lo, i, k, got, row, col[row])
				}
			}
		}
	}
	if want := kinds["all"] + kinds["part"]; yields != want {
		t.Fatalf("%s: %d batches yielded, want one per input batch with a kept row: %d", name, yields, want)
	}
}

// contractColumns returns the ID columns of the rows of v, as its scan
// yields them.
func contractColumns(v rel.StoredRel) [][]uint32 {
	cols := make([][]uint32, v.Arity())
	c := v.BatchScanSized(rel.BatchCap)
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		for k := range cols {
			cols[k] = append(cols[k], b.Col(k)...)
		}
	}
	return cols
}

// checkDifferenceContract runs L − T over four subtrahends — T stored
// in memory, computed (a cursor drained into an idSet), held in two
// runs, and behind a fault-injection wrapper — at every contract batch
// size. L's three segments are rows T lacks, rows T holds, and rows T
// holds and lacks in turn; T also holds rows L lacks.
func checkDifferenceContract(t *testing.T, arity int) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"L": arity, "T": arity}))
	row := func(i int) []int64 {
		return []int64{int64(i), int64(i % 5)}[:arity]
	}
	for i := range 3 * contractRows {
		d.AddInts("L", row(i)...)
		if seg := i / contractRows; seg == 1 || (seg == 2 && i%2 == 0) {
			d.AddInts("T", row(i)...)
		}
	}
	for i := range 100 {
		d.AddInts("T", row(10*contractRows+i)...)
	}
	split, wrapped := newSplitStore(d), faultinject.Wrap(d, faultinject.Fault{})
	for _, size := range contractSizes {
		for _, tc := range []struct {
			name     string
			store    rel.ReadStore
			computed bool
		}{
			{"in-memory relation", d, false},
			{"computed", d, true},
			{"two runs", split, false},
			{"fault-injected view", wrapped, false},
		} {
			name := fmt.Sprintf("%s at batch size %d", tc.name, size)
			cols, sub := contractColumns(tc.store.View("L")), contractColumns(tc.store.View("T"))
			held := map[[2]uint32]bool{}
			for i := range sub[0] {
				var key [2]uint32
				for k, col := range sub {
					key[k] = col[i]
				}
				held[key] = true
			}
			keep := make([]bool, len(cols[0]))
			for i := range keep {
				var key [2]uint32
				for k, col := range cols {
					key[k] = col[i]
				}
				keep[i] = !held[key]
			}
			in := script(cols, size)
			m := &meter{}
			c := &diffCursor{filter: filter{in: in}, arity: arity, meter: m}
			if tc.computed {
				c.buildC = tc.store.View("T").BatchScanSized(size)
			} else {
				c.stored = tc.store.View("T")
			}
			checkCompaction(t, name, c, in, cols, keep, size)
			if m.cur != 0 || (tc.computed && m.max != len(sub[0])) || (!tc.computed && m.max != 0) {
				t.Errorf("%s: meter %d after, peak %d; want 0 after and a peak of the subtrahend's rows when computed", name, m.cur, m.max)
			}
		}
	}
}

// checkDedupContract runs the dedup filter at every contract batch
// size over three segments: fresh rows, repeats of them, and fresh rows
// and repeats in turn.
func checkDedupContract(t *testing.T, arity int) {
	cols := make([][]uint32, arity)
	keep := make([]bool, 3*contractRows)
	for i := range keep {
		id, seg := uint32(i), i/contractRows
		switch {
		case seg == 1:
			id = uint32(i - contractRows)
		case seg == 2 && i%2 == 0:
			id = uint32(i % contractRows)
		}
		keep[i] = id == uint32(i)
		for k := range cols {
			cols[k] = append(cols[k], id*uint32(k+1))
		}
	}
	distinct := contractRows + contractRows/2
	for _, size := range contractSizes {
		in := script(cols, size)
		m := &meter{}
		name := fmt.Sprintf("dedup at batch size %d", size)
		checkCompaction(t, name, &dedupCursor{filter: filter{in: in}, arity: arity, meter: m}, in, cols, keep, size)
		if m.cur != 0 || m.max != distinct {
			t.Errorf("%s: meter %d after, peak %d; want 0 after and a peak of the %d distinct rows", name, m.cur, m.max, distinct)
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
