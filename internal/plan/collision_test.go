package plan_test

import (
	"fmt"
	"sync"
	"testing"

	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/xra"
)

// A query decodes through one dictionary: its result's, based on the
// store's as it stood at query start, with a tail for the values the
// query creates; the result keeps it. A created value
// the store already holds must get the stored ID — or a τ constant
// would never join the stored string it equals — and a created value
// the store lacks must get an ID of its own, never one a stored value
// has. These tests hold the values a query creates to the algebra's
// Eval where they meet stored columns.

// collisionDB mixes int 1 with string "1" and holds the string "x" and
// the ints a γ over A counts (1 and 2).
func collisionDB() *rel.Database {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"A": 2, "B": 1}))
	for _, t := range []rel.Tuple{
		{rel.Int(1), rel.Str("1")},
		{rel.Str("x"), rel.Int(2)},
		{rel.Str("1"), rel.Int(1)},
		{rel.Int(3), rel.Str("x")},
		{rel.Int(4), rel.Int(2)},
	} {
		d.Add("A", t)
	}
	for _, v := range []rel.Value{rel.Str("x"), rel.Int(1), rel.Str("1")} {
		d.Add("B", rel.T(v))
	}
	return d
}

// created are binary subplans whose second column the query creates.
func created() map[string]*plan.Node {
	b := plan.NRel("B", 1)
	a := plan.NRel("A", 2)
	return map[string]*plan.Node{
		"tag stored string x": plan.NConstTag(rel.Str("x"), b),
		"tag int 1":           plan.NConstTag(rel.Int(1), b),
		"tag string 1":        plan.NConstTag(rel.Str("1"), b),
		"tag new value":       plan.NConstTag(rel.Str("not stored"), b),
		"gamma count(*)":      plan.NGamma([]int{2}, 0, a),
		"gamma count(1)":      plan.NGamma([]int{2}, 1, a),
	}
}

// TestCreatedValuesMeetStoredColumns unions, differences, joins and
// semijoins every created column against stored columns, and the
// created columns against each other, at batch sizes 1 and 1024. The
// oracle evaluates in two steps, sharing nothing with the executor's
// dictionaries: xra.Eval materializes the created relations X and Y
// into a database beside A and B, and the algebra's Eval runs the
// operator over that database with X and Y stored.
func TestCreatedValuesMeetStoredColumns(t *testing.T) {
	d := collisionDB()
	a, b := plan.NRel("A", 2), plan.NRel("B", 1)
	ops := map[string]func(x, y *plan.Node) *plan.Node{
		"X union A":           func(x, _ *plan.Node) *plan.Node { return plan.NUnion(x, a) },
		"X minus A":           func(x, _ *plan.Node) *plan.Node { return plan.NDiff(x, a) },
		"A minus X":           func(x, _ *plan.Node) *plan.Node { return plan.NDiff(a, x) },
		"X join[2=1] B":       func(x, _ *plan.Node) *plan.Node { return plan.NJoin(x, ra.Eq(2, 1), b) },
		"A join[2=2] X":       func(x, _ *plan.Node) *plan.Node { return plan.NJoin(a, ra.Eq(2, 2), x) },
		"A join[1=2] X":       func(x, _ *plan.Node) *plan.Node { return plan.NJoin(a, ra.Eq(1, 2), x) },
		"A semijoin[2=2] X":   func(x, _ *plan.Node) *plan.Node { return plan.NSemijoin(a, ra.Eq(2, 2), x) },
		"X semijoin[2=1] A":   func(x, _ *plan.Node) *plan.Node { return plan.NSemijoin(x, ra.Eq(2, 1), a) },
		"X antijoin[2=1] A":   func(x, _ *plan.Node) *plan.Node { return plan.NAntijoin(x, ra.Eq(2, 1), a) },
		"select 2=int 1 X":    func(x, _ *plan.Node) *plan.Node { return plan.NSelectConst(2, rel.Int(1), x) },
		"select 2=string 1 X": func(x, _ *plan.Node) *plan.Node { return plan.NSelectConst(2, rel.Str("1"), x) },
		"select 2<1 X":        func(x, _ *plan.Node) *plan.Node { return plan.NSelect(2, ra.OpLt, 1, x) },
		"X join[2=2] Y":       func(x, y *plan.Node) *plan.Node { return plan.NJoin(x, ra.Eq(2, 2), y) },
		"X union Y":           func(x, y *plan.Node) *plan.Node { return plan.NUnion(x, y) },
		"X minus Y":           func(x, y *plan.Node) *plan.Node { return plan.NDiff(x, y) },
	}
	cs := created()
	for xname, x := range cs {
		for yname, y := range cs {
			stored := rel.NewDatabase(rel.NewSchema(map[string]int{"A": 2, "B": 1, "X": 2, "Y": 2}))
			for name, n := range map[string]*plan.Node{"A": a, "B": b, "X": x, "Y": y} {
				e, ok := plan.ToXRA(n)
				if !ok {
					t.Fatalf("%s: not an xra expression", name)
				}
				for _, tp := range xra.Eval(e, d).Tuples() {
					stored.Add(name, tp)
				}
			}
			for opname, op := range ops {
				name := fmt.Sprintf("%s with X = %s, Y = %s", opname, xname, yname)
				var want string
				oracle := op(plan.NRel("X", 2), plan.NRel("Y", 2))
				if e, ok := plan.ToRA(oracle); ok {
					want = ra.Eval(e, stored).String()
				} else if e, ok := plan.ToSA(oracle); ok {
					want = sa.Eval(e, stored).String()
				} else {
					t.Fatalf("%s: the oracle is neither RA nor SA", name)
				}
				for _, batch := range []int{1, 1024} {
					got := plan.CompileIR(op(x, y), d, plan.Options{BatchSize: batch}).Execute().String()
					if got != want {
						t.Errorf("%s, batch %d:\ngot\n%swant\n%s", name, batch, got, want)
					}
				}
			}
		}
	}
}

// TestQueriesCreatingValuesRunConcurrently runs two plans that create
// values the store lacks, and one that creates a value it holds, from
// several goroutines on one database: each interns into its own tail,
// so under -race nothing races, and the database's dictionary does not
// grow.
func TestQueriesCreatingValuesRunConcurrently(t *testing.T) {
	d := collisionDB()
	before := d.Dict().Len()
	cs := created()
	plans := []*plan.Plan{
		plan.CompileIR(plan.NUnion(cs["tag new value"], plan.NRel("A", 2)), d, plan.Options{}),
		plan.CompileIR(plan.NJoin(cs["gamma count(*)"], ra.Eq(2, 2), cs["tag int 1"]), d, plan.Options{}),
		plan.CompileIR(plan.NSemijoin(plan.NRel("A", 2), ra.Eq(1, 2), cs["tag stored string x"]), d, plan.Options{}),
	}
	want := make([]string, len(plans))
	for i, p := range plans {
		want[i] = p.Execute().String()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(plans))
	for g := range 4 {
		for i, p := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					if got := p.Execute().String(); got != want[i] {
						errs <- fmt.Errorf("goroutine %d, plan %d: got\n%swant\n%s", g, i, got, want[i])
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := d.Dict().Len(); after != before {
		t.Errorf("the database's dictionary grew from %d to %d values during queries", before, after)
	}
}

// TestResultReadsAfterStoreInterns: a result reads its store's
// dictionary as it stood when the query ran. The store then interns
// new values, and the result reads as it did: String, Contains and
// Equal are unchanged. A value the result then Adds, one the store
// gained meanwhile included, gets the next ID of the result's own
// tail, and the store never sees it.
func TestResultReadsAfterStoreInterns(t *testing.T) {
	d := collisionDB()
	cs := created()
	q := plan.NUnion(cs["tag new value"], cs["gamma count(*)"])
	res := plan.CompileIR(q, d, plan.Options{}).Execute()
	again := plan.CompileIR(q, d, plan.Options{}).Execute()
	text, tuples := res.String(), res.Tuples()
	for i := range 100 {
		d.Add("A", rel.T(rel.Str(fmt.Sprintf("late %d", i)), rel.Int(int64(1000+i))))
	}
	if res.String() != text || !res.Equal(again) || !again.Equal(res) {
		t.Fatalf("the result reads differently after the store interned:\n%s", res.String())
	}
	for _, tp := range tuples {
		if !res.Contains(tp) {
			t.Fatalf("the result lost %v", tp)
		}
	}
	if res.Contains(rel.T(rel.Str("late 0"), rel.Int(1000))) {
		t.Fatal("the result holds a tuple the store gained")
	}
	storeLen := d.Dict().Len()
	for _, tp := range []rel.Tuple{
		{rel.Str("fresh"), rel.Int(-1)},
		{rel.Str("late 7"), rel.Int(1007)}, // values the store gained after the query
	} {
		n := res.Interner().Len()
		if !res.Add(tp) {
			t.Fatalf("Add(%v) reported a duplicate", tp)
		}
		for k, v := range tp {
			id, ok := res.Interner().ID(v)
			if want := uint32(n + k); !ok || id != want {
				t.Errorf("%v: ID %d, %v; want the tail ID %d", v, id, ok, want)
			}
		}
		if !res.Contains(tp) {
			t.Errorf("the result lost the added %v", tp)
		}
	}
	if d.Dict().Len() != storeLen {
		t.Errorf("the result's Adds grew the store's dictionary from %d to %d values", storeLen, d.Dict().Len())
	}
	if _, ok := d.Dict().ID(rel.Str("fresh")); ok {
		t.Error("a value added to the result reached the store")
	}
	if res.String() == text || res.Len() != len(tuples)+2 {
		t.Errorf("the result has %d tuples after two Adds, want %d", res.Len(), len(tuples)+2)
	}
}

// TestResultsTakeFreshValuesWhileQueriesRun: a result and its clone take
// fresh values, each from a goroutine of its own, while other
// goroutines run queries on the store the result's dictionary is based
// on. Under -race nothing races: the Adds write the results' own tails,
// and the store's dictionary does not move.
func TestResultsTakeFreshValuesWhileQueriesRun(t *testing.T) {
	d := collisionDB()
	cs := created()
	q := plan.CompileIR(plan.NUnion(cs["tag new value"], cs["gamma count(*)"]), d, plan.Options{})
	res := q.Execute()
	want, rows := res.String(), res.Len()
	before := d.Dict().Len()
	clone := res.Clone()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if got := q.Execute().String(); got != want {
					errs <- fmt.Errorf("query goroutine %d: got\n%swant\n%s", g, got, want)
					return
				}
			}
		}()
	}
	for name, r := range map[string]*rel.Relation{"result": res, "clone": clone} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				tp := rel.T(rel.Str(fmt.Sprintf("%s %d", name, i)), rel.Str("not stored"))
				if !r.Add(tp) || !r.Contains(tp) {
					errs <- fmt.Errorf("%s: Add(%v) lost the tuple", name, tp)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := d.Dict().Len(); after != before {
		t.Errorf("the store's dictionary grew from %d to %d values while results took fresh values", before, after)
	}
	for name, r := range map[string]*rel.Relation{"result": res, "clone": clone} {
		other := map[string]string{"result": "clone", "clone": "result"}[name]
		if r.Contains(rel.T(rel.Str(other+" 0"), rel.Str("not stored"))) {
			t.Errorf("%s holds a tuple only the %s took", name, other)
		}
		if r.Len() != rows+500 {
			t.Errorf("%s: %d tuples, want %d", name, r.Len(), rows+500)
		}
	}
}
