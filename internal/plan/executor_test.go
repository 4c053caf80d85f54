package plan_test

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/shard"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// This file is the executor suite: every row of executor_cases_test.go,
// on randomized databases, crossed with {as written, optimized} × batch
// size {1, 2, 64, 1024} × store {rel.Database, shard.Database at 1/2/4
// shards} × {ungoverned, governed}. The materialized evaluators are the
// oracle; each execution is held to three laws:
//
//  1. Result. Byte-identical, in canonical order, to the materialized
//     Eval of the expression as written.
//  2. Flow. The trace has the materialized EvalTraced's steps, in its
//     post-order, and each step's flow relates to the node's
//     cardinality by the executor's duplicate analysis: equal where the
//     node cannot emit duplicates, at least it where it can, and zero
//     for a stored relation consumed in place.
//  3. Resident. On the in-memory database MaxResident ≤ TotalTuples —
//     every tuple held flowed through some operator — and MaxResident
//     equals the golden table (testdata/max_resident.golden), whatever
//     the batch size and with or without a governor. The table was
//     captured from the tuple-at-a-time evaluators at the last commit
//     that had them, so it pins the accounting this executor inherited.
//     Other backends may hold more: a θ-only join materializes (and
//     meters) a stored right side it cannot replay in place.

var updateGolden = flag.Bool("update", false, "rewrite testdata/max_resident.golden from this run")

const goldenPath = "testdata/max_resident.golden"

// golden is the MaxResident table, keyed by "case seed=N plain|opt".
type golden struct {
	want map[string]int
	seen map[string]int
}

func loadGolden(t *testing.T) *golden {
	t.Helper()
	g := &golden{want: map[string]int{}, seen: map[string]int{}}
	f, err := os.Open(goldenPath)
	if err != nil {
		if *updateGolden {
			return g
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "\t")
		n, err := strconv.Atoi(val)
		if !ok || err != nil {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		g.want[key] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return g
}

// check holds one execution's MaxResident to the table.
func (g *golden) check(t *testing.T, key, label string, got int) {
	t.Helper()
	if prev, ok := g.seen[key]; ok && prev != got {
		t.Errorf("%s %s: MaxResident %d, another execution of the same plan reported %d", key, label, got, prev)
	}
	g.seen[key] = got
	if *updateGolden {
		return
	}
	if want, ok := g.want[key]; !ok {
		t.Errorf("%s: no golden entry (run with -update)", key)
	} else if got != want {
		t.Errorf("%s %s: MaxResident %d, golden %d", key, label, got, want)
	}
}

// save merges this test's entries into the table under -update.
func (g *golden) save(t *testing.T) {
	t.Helper()
	if !*updateGolden {
		return
	}
	for k, v := range g.seen {
		g.want[k] = v
	}
	keys := make([]string, 0, len(g.want))
	for k := range g.want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# MaxResident per executor-suite case on rel.Database; see executor_test.go.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%d\n", k, g.want[k])
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// materialized evaluates a plan tree with the materialized evaluator of
// the smallest algebra that expresses it, returning the result and the
// trace's step labels and cardinalities. ok is false for a mixed plan,
// which no materialized evaluator runs.
func materialized(n *plan.Node, d rel.ReadStore) (res *rel.Relation, steps []plan.Step, ok bool) {
	add := func(e fmt.Stringer, size int) { steps = append(steps, plan.Step{Label: e.String(), Size: size}) }
	if e, ok := plan.ToRA(n); ok {
		res, tr := ra.EvalTraced(e, d)
		for _, s := range tr.Steps {
			add(s.Expr, s.Size)
		}
		return res, steps, true
	}
	if e, ok := plan.ToSA(n); ok {
		res, tr := sa.EvalTraced(e, d)
		for _, s := range tr.Steps {
			add(s.Expr, s.Size)
		}
		return res, steps, true
	}
	if e, ok := plan.ToXRA(n); ok {
		res, tr := xra.EvalTraced(e, d)
		for _, s := range tr.Steps {
			add(s.Expr, s.Size)
		}
		return res, steps, true
	}
	return nil, nil, false
}

// planStep is one node occurrence of a plan in trace (post-) order;
// inPlace marks a stored relation its parent consumes as a view.
type planStep struct {
	n       *plan.Node
	inPlace bool
}

func postOrder(n *plan.Node, inPlace bool, out []planStep) []planStep {
	for i, k := range n.Kids {
		viewed := false
		if i == 1 && k.Kind == plan.KRel {
			switch n.Kind {
			case plan.KDiff:
				viewed = true
			case plan.KJoin, plan.KSemijoin, plan.KAntijoin:
				viewed = len(n.Cond.EqPairs()) == 0
			}
		}
		out = postOrder(k, viewed, out)
	}
	return append(out, planStep{n, inPlace})
}

// checkFlow is law 2.
func checkFlow(t *testing.T, label string, root *plan.Node, tr *plan.Trace, sizes []plan.Step) {
	t.Helper()
	nodes := postOrder(root, false, nil)
	if len(tr.Steps) != len(sizes) || len(tr.Steps) != len(nodes) {
		t.Errorf("%s: trace has %d steps, materialized trace %d, plan %d nodes", label, len(tr.Steps), len(sizes), len(nodes))
		return
	}
	for i, st := range tr.Steps {
		switch size := sizes[i].Size; {
		case st.Label != sizes[i].Label:
			t.Errorf("%s: step %d is %s, materialized trace has %s", label, i, st.Label, sizes[i].Label)
		case nodes[i].inPlace:
			if st.Size != 0 {
				t.Errorf("%s: step %d (%s) is consumed in place but reports flow %d", label, i, st.Label, st.Size)
			}
		case !plan.MayEmitDuplicates(nodes[i].n):
			if st.Size != size {
				t.Errorf("%s: step %d (%s): flow %d, cardinality %d, and the node cannot emit duplicates", label, i, st.Label, st.Size, size)
			}
		case st.Size < size:
			t.Errorf("%s: step %d (%s): flow %d below cardinality %d", label, i, st.Label, st.Size, size)
		}
	}
}

func sameEmission(a, b *rel.Relation) error {
	if a.Arity() != b.Arity() {
		return fmt.Errorf("arity %d vs %d", a.Arity(), b.Arity())
	}
	at, bt := a.Tuples(), b.Tuples()
	if len(at) != len(bt) {
		return fmt.Errorf("%d tuples vs %d", len(at), len(bt))
	}
	for i := range at {
		if !at[i].Equal(bt[i]) {
			return fmt.Errorf("tuple %d: %s vs %s", i, at[i], bt[i])
		}
	}
	return nil
}

// backend is one store of the crossing.
type backend struct {
	name string
	d    rel.ReadStore
}

// backends returns the crossing's stores, all holding d's data: d
// itself and hash-partitioned copies, whose scans switch dictionaries
// at shard-run boundaries.
func backends(d *rel.Database) []backend {
	return []backend{
		{"database", d},
		{"shards=1", shard.FromStore(d, 1)},
		{"shards=2", shard.FromStore(d, 2)},
		{"shards=4", shard.FromStore(d, 4)},
	}
}

// checkExecutor runs one case through the whole crossing, over stores
// that hold d's data (the first is d itself). key identifies the
// (case, database) pair in the golden table.
func checkExecutor(t *testing.T, g *golden, key string, c suiteCase, d *rel.Database, stores []backend) {
	t.Helper()
	oracle, _, _ := materialized(c.root, d)
	want := rel.NewRelationSized(oracle.Arity(), oracle.Len())
	for _, tp := range oracle.Sorted() {
		want.Add(tp)
	}
	for _, optimize := range []bool{false, true} {
		gkey := key + " plain"
		if optimize {
			gkey = key + " opt"
		}
		// A plan is bound to its store's statistics, and every store
		// here holds the same data, so the rewritten tree — and with it
		// the materialized trace to hold the flows to — is the same for
		// all of them (checkFlow would report a tree that differs).
		_, sizes, traced := materialized(plan.CompileIR(c.root, d, plan.Options{Optimize: optimize}).Root(), d)
		for _, st := range stores {
			for _, batch := range []int{1, 2, 64, 1024} {
				p := plan.CompileIR(c.root, st.d, plan.Options{Optimize: optimize, BatchSize: batch})
				for _, governed := range []bool{false, true} {
					label := fmt.Sprintf("%s engine=%s store=%s batch=%d governed=%v", gkey, p.Engine(), st.name, batch, governed)
					live, _, _ := rel.BatchPoolStats()
					var res *rel.Relation
					var tr *plan.Trace
					if governed {
						var err error
						if res, tr, err = p.ExecuteTracedContext(context.Background()); err != nil {
							t.Errorf("%s: %v", label, err)
							continue
						}
					} else {
						res, tr = p.ExecuteTraced()
					}
					if after, _, _ := rel.BatchPoolStats(); after != live {
						t.Errorf("%s: %d pooled batches still live", label, after-live)
					}
					if err := sameEmission(want, res); err != nil {
						t.Errorf("%s: result differs from the materialized evaluation: %v", label, err)
					}
					if traced {
						checkFlow(t, label, p.Root(), tr, sizes)
					}
					if st.d == rel.ReadStore(d) {
						if tr.MaxResident > tr.TotalTuples {
							t.Errorf("%s: MaxResident %d > TotalTuples %d", label, tr.MaxResident, tr.TotalTuples)
						}
						g.check(t, gkey, label, tr.MaxResident)
					}
				}
			}
			if _, sharded := st.d.(shard.Source); sharded && optimize {
				// The untraced entries run the same executor; hold them to
				// the oracle once per sharded store.
				p := plan.CompileIR(c.root, st.d, plan.Options{Optimize: true})
				if err := sameEmission(want, p.Execute()); err != nil {
					t.Errorf("%s store=%s: Execute differs from the materialized evaluation: %v", gkey, st.name, err)
				}
				if res, err := p.ExecuteContext(context.Background()); err != nil {
					t.Errorf("%s store=%s: ExecuteContext: %v", gkey, st.name, err)
				} else if err := sameEmission(want, res); err != nil {
					t.Errorf("%s store=%s: ExecuteContext differs from the materialized evaluation: %v", gkey, st.name, err)
				}
			}
		}
	}
}

// TestPlannerEquivalenceCorpus sweeps the three algebras' operator
// corpora over randomized set-join databases, and the paper's Example 3
// over a beer database.
func TestPlannerEquivalenceCorpus(t *testing.T) {
	g := loadGolden(t)
	for _, seed := range corpusSeeds {
		d := setJoinDatabase(seed)
		stores := backends(d)
		for _, c := range corpusCases() {
			checkExecutor(t, g, fmt.Sprintf("%s seed=%d", c.name, seed), c, d, stores)
		}
	}
	lousy := suiteCase{"sa/lousy-bar", plan.FromSA(sa.LousyBarExpr())}
	beers := workload.BeerDatabase(1, 200, 16)
	checkExecutor(t, g, "sa/lousy-bar seed=1", lousy, beers, backends(beers))
	g.save(t)
}

// TestPlannerEquivalenceDivision sweeps the division family — the
// rewrites that change the plan's algebra, and the γ-divisions the
// executor runs as one operator — over randomized division workloads,
// including degenerate draws (empty S, empty R) where the rewrite
// guards must decline.
func TestPlannerEquivalenceDivision(t *testing.T) {
	g := loadGolden(t)
	for seed := int64(0); seed < 8; seed++ {
		d := workload.RandomDivision(seed).Database()
		stores := backends(d)
		for _, c := range divisionCases() {
			checkExecutor(t, g, fmt.Sprintf("%s seed=%d", c.name, seed), c, d, stores)
		}
	}
	empty := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	stores := backends(empty)
	for _, c := range divisionCases() {
		checkExecutor(t, g, c.name+" empty", c, empty, stores)
	}
	g.save(t)
}

// TestPlannerEquivalenceSetJoins sweeps the set-join idioms.
func TestPlannerEquivalenceSetJoins(t *testing.T) {
	g := loadGolden(t)
	for _, seed := range setJoinSeeds {
		d := setJoinDatabase(seed)
		stores := backends(d)
		for _, c := range setJoinCases() {
			checkExecutor(t, g, fmt.Sprintf("%s seed=%d", c.name, seed), c, d, stores)
		}
	}
	g.save(t)
}
