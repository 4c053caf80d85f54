package main

import (
	"fmt"
	"io"
	"time"

	"radiv/internal/bisim"
	"radiv/internal/core"
	"radiv/internal/division"
	"radiv/internal/gf"
	"radiv/internal/paperfigs"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/setjoin"
	"radiv/internal/shard"
	"radiv/internal/stats"
	"radiv/internal/translate"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// sameEmission reports byte-identity of two tuple sequences: same
// length, same tuples, same order — the check the equivalence
// experiments (ST3, ST5) make against their references.
func sameEmission(got, want []rel.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return false
		}
	}
	return true
}

// experiment is one reproducible unit: a figure, example or claim.
type experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer)
}

// workers is the -workers flag: the pool size of ST3's shard-local
// work (0 = one per CPU).
var workers int

// shards is the -shards flag: the shard count ST3 partitions its
// stores into (0 = sweep 1, 2, 4).
var shards int

func experiments() []experiment {
	return []experiment{
		{"F1", "Fig. 1: set-containment join and division on the medical example", runF1},
		{"F2", "Fig. 2: C-stored tuples (Example 5)", runF2},
		{"F3", "Fig. 3: guarded bisimulation (Example 12)", runF3},
		{"F4", "Fig. 4: Lemma 24 pumping — |Dn| linear, |E(Dn)| quadratic", runF4},
		{"F5", "Fig. 5: division is not expressible in SA= (Proposition 26)", runF5},
		{"F6", "Fig. 6: the cyclic beer query is not in SA= (Section 4.1)", runF6},
		{"E3", "Examples 3 and 7: the lousy-bar query in SA= and GF", runE3},
		{"T8", "Theorem 8: SA= ↔ GF differential check", runT8},
		{"T17", "Theorem 17: the linear/quadratic dichotomy, measured", runT17},
		{"P26", "Proposition 26: division cost — RA expression vs direct algorithms", runP26},
		{"SJ1", "Set-containment join algorithms", runSJ1},
		{"SJ2", "Set-equality join algorithms", runSJ2},
		{"G5", "Section 5: linear division with grouping and counting", runG5},
		{"ST1", "The executor: resident vs intermediate on the division expression", runST1},
		{"ST2", "SA and γ plans: linear resident memory", runST2},
		{"ST3", "Sharded stores: shard-local division and set joins, per-shard resident memory, merge cost", runST3},
		{"ST5", "Query planner: automatic linearization — division flow exponent 2 → 1, identical results", runST5},
	}
}

func runF1(w io.Writer) {
	d := paperfigs.Fig1()
	fmt.Fprintln(w, d)
	div := ra.Eval(ra.DivisionExpr("Person", "Symptoms"), d)
	fmt.Fprintf(w, "Person ÷ Symptoms:\n%s\n", div)
	person := setjoin.Groups(d.Rel("Person"))
	disease := setjoin.Groups(d.Rel("Disease"))
	sj, _ := setjoin.InvertedIndexContainment{}.Join(person, disease)
	fmt.Fprintf(w, "Person ⋈[Symptom⊇Symptom] Disease:\n%s", sj)
}

func runF2(w io.Writer) {
	d := paperfigs.Fig2()
	c := rel.Consts(rel.Str("a"))
	fmt.Fprintln(w, d)
	t := stats.NewTable("tuple", "C-stored (C = {a})")
	for _, tup := range []rel.Tuple{rel.Strs("b", "c"), rel.Strs("a", "f"), rel.Strs("e", "c"), rel.Strs("g")} {
		t.AddRow(tup.String(), rel.IsCStored(d, c, tup))
	}
	fmt.Fprint(w, t)
}

func runF3(w io.Writer) {
	a, b := paperfigs.Fig3()
	ch := bisim.NewChecker(a, b, rel.Consts())
	max := ch.MaximalBisimulation()
	fmt.Fprintf(w, "maximal guarded bisimulation has %d partial isomorphisms\n", len(max))
	t := stats.NewTable("pair", "bisimilar")
	t.AddRow("A,(1,2) vs B,(6,7)", ch.Bisimilar(rel.Ints(1, 2), rel.Ints(6, 7)))
	t.AddRow("A,(1,2) vs B,(9,10)", ch.Bisimilar(rel.Ints(1, 2), rel.Ints(9, 10)))
	t.AddRow("A,(1,2) vs B,(7,8)", ch.Bisimilar(rel.Ints(1, 2), rel.Ints(7, 8)))
	fmt.Fprint(w, t)
}

func runF4(w io.Writer) {
	d, e := paperfigs.Fig4()
	witness := core.FindWitnessAt(e, d)
	fmt.Fprintf(w, "expression: %s\nwitness: %s\n\n", e, witness)
	p, err := core.NewPump(witness)
	if err != nil {
		fmt.Fprintf(w, "pump error: %v\n", err)
		return
	}
	fmt.Fprintf(w, "D2 (the figure's second database, canonical labels):\n%s\n", p.Database(2))
	t := stats.NewTable("n", "|Dn|", "c*n (c=2|D|)", "|E(Dn)|", "n^2")
	for _, pt := range p.Measure([]int{1, 2, 4, 8, 16, 32}) {
		t.AddRow(pt.N, pt.DatabaseSize, 2*d.Size()*pt.N, pt.JoinOutput, pt.N*pt.N)
	}
	fmt.Fprint(w, t)
}

func runF5(w io.Writer) {
	a, b := paperfigs.Fig5()
	ch := bisim.NewChecker(a, b, rel.Consts())
	fmt.Fprintf(w, "A,1 ~C B,1: %v\n", ch.Bisimilar(rel.Ints(1), rel.Ints(1)))
	divA := division.Reference(a.Rel("R"), a.Rel("S"), division.Containment)
	divB := division.Reference(b.Rel("R"), b.Rel("S"), division.Containment)
	fmt.Fprintf(w, "R ÷ S on A: %v (size %d)\n", divA.Sorted(), divA.Len())
	fmt.Fprintf(w, "R ÷ S on B: %v (size %d)\n", divB.Sorted(), divB.Len())
	fmt.Fprintln(w, "⇒ any SA= expression agreeing on A,1 also returns 1 on B: division ∉ SA=,")
	fmt.Fprintln(w, "  and by Theorem 18 every RA expression for division is quadratic.")
}

func runF6(w io.Writer) {
	a, b := paperfigs.Fig6()
	ch := bisim.NewChecker(a, b, rel.Consts())
	fmt.Fprintf(w, "(A, alex) ~C (B, alex): %v\n", ch.Bisimilar(rel.Strs("alex"), rel.Strs("alex")))
	fmt.Fprintln(w, "query Q: drinkers visiting a bar serving a beer they like")
	fmt.Fprintln(w, "Q(A) = {alex}, Q(B) = ∅ ⇒ Q ∉ SA= ⇒ Q needs quadratic RA expressions.")
}

func runE3(w io.Writer) {
	d := paperfigs.Example3()
	e := sa.LousyBarExpr()
	f := gf.LousyBarFormula()
	fmt.Fprintf(w, "SA= expression: %s\nGF formula:     %s\n\n", e, f)
	fromSA := sa.Eval(e, d)
	fromGF := gf.Answers(f, d, rel.Consts(), []gf.Var{"x"})
	fmt.Fprintf(w, "SA= answer: %vGF answer:  %v", fromSA, fromGF)
}

func runT8(w io.Writer) {
	schema := rel.NewSchema(map[string]int{"Likes": 2, "Serves": 2, "Visits": 2})
	exprs := []sa.Expr{
		sa.LousyBarExpr(),
		sa.NewSemijoin(sa.R("Visits", 2), ra.Eq(2, 1), sa.R("Serves", 2)),
		sa.NewAntijoin(sa.R("Likes", 2), ra.Eq(2, 2), sa.R("Serves", 2)),
		sa.NewProject([]int{2}, sa.R("Likes", 2)),
	}
	t := stats.NewTable("SA= expression", "databases", "agree")
	for _, e := range exprs {
		f, vars, err := translate.ToGF(e, schema)
		if err != nil {
			t.AddRow(e.String(), 0, "error: "+err.Error())
			continue
		}
		agree := 0
		const trials = 12
		for seed := int64(0); seed < trials; seed++ {
			d := workload.BeerDatabase(seed, 3+int(seed)%6, 4)
			if sa.Eval(e, d).Equal(gf.Answers(f, d, rel.Consts(), vars)) {
				agree++
			}
		}
		t.AddRow(e.String(), trials, fmt.Sprintf("%d/%d", agree, trials))
	}
	fmt.Fprint(w, t)
}

func runT17(w io.Writer) {
	gen := func(scale int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for i := 0; i < scale; i++ {
			d.AddInts("R", int64(i), int64(i%7))
			d.AddInts("S", int64(3*i))
		}
		return d
	}
	cases := []struct {
		name string
		e    ra.Expr
	}{
		{"semijoin shape R⋉S", ra.EquiSemijoinExpr(ra.R("R", 2), ra.Eq(2, 1), ra.R("S", 1))},
		{"union/diff/select", ra.NewDiff(ra.R("R", 2), ra.NewSelect(1, ra.OpLt, 2, ra.R("R", 2)))},
		{"product R×S", ra.Product(ra.R("R", 2), ra.R("S", 1))},
		{"division expression", ra.DivisionExpr("R", "S")},
	}
	t := stats.NewTable("expression", "classifier", "measured exponent")
	for _, c := range cases {
		v, err := core.Classify(c.e, nil)
		verdict := "error"
		if err == nil {
			verdict = v.Class.String()
		}
		var sizes, peaks []float64
		for _, scale := range []int{16, 32, 64, 128, 256} {
			d := gen(scale)
			_, tr := ra.EvalTraced(c.e, d)
			sizes = append(sizes, float64(d.Size()))
			peaks = append(peaks, float64(tr.MaxIntermediate))
		}
		t.AddRow(c.name, verdict, stats.GrowthExponent(sizes, peaks))
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\nexponents cluster at ≤1 or ≥2: no expression lives in between (Theorem 17)")
}

// divisionScaling builds the scaling family used by P26 and G5: n
// groups with small B-sets and a divisor whose size grows with n, so
// the quadratic intermediate π1(R) × S of the classical expression is
// visible (with a fixed-size divisor every algorithm looks linear).
func divisionScaling(n int) (*rel.Relation, *rel.Relation) {
	r := rel.NewRelation(2)
	for i := 0; i < n; i++ {
		r.Add(rel.Ints(int64(i), int64(i%9)))
		r.Add(rel.Ints(int64(i), int64((i+3)%9)))
	}
	s := rel.NewRelation(1)
	for i := 0; i < n/4; i++ {
		s.Add(rel.Ints(int64(100 + i)))
	}
	return r, s
}

func runP26(w io.Writer) {
	t := stats.NewTable("n", "algorithm", "time", "max memory tuples", "comparisons+probes")
	for _, n := range []int{200, 400, 800} {
		r, s := divisionScaling(n)
		for _, alg := range division.All() {
			start := time.Now()
			_, st := alg.Divide(r, s, division.Containment)
			t.AddRow(r.Len()+s.Len(), alg.Name(), time.Since(start).Round(time.Microsecond),
				st.MaxMemoryTuples, st.Comparisons+st.Probes)
		}
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\nclassic-ra's memory column grows quadratically; hash/aggregate stay linear")
	fmt.Fprintln(w, "and merge-sort stays n·log n (footnote 1 of the paper); the executor runs the")
	fmt.Fprintln(w, "same quadratic expression but holds only linear state (see ST1)")
}

// executed runs an IR tree as written on the executor and returns the
// canonical result with its trace.
func executed(root *plan.Node, d rel.ReadStore) (*rel.Relation, *plan.Trace) {
	return plan.CompileIR(root, d, plan.Options{}).ExecuteTraced()
}

// runST1 evaluates the classical division expression with the
// materialized evaluator and on the executor, on the P26 scaling
// family, and contrasts the two memory observables: the materialized
// evaluator's max intermediate (what pure RA must compute, quadratic by
// Proposition 26) against the executor's max resident (what a
// pipelined executor must hold, which stays linear — the product flows
// but is never stored).
func runST1(w io.Writer) {
	e := ra.DivisionExpr("R", "S")
	t := stats.NewTable("n", "|D|", "max intermediate", "executor flow max", "max resident")
	var sizes, inter, resident []float64
	for _, n := range []int{100, 200, 400, 800} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		mat, mt := ra.EvalTraced(e, d)
		str, st := executed(plan.FromRA(e), d)
		if !mat.Equal(str) {
			fmt.Fprintln(w, "!! executor result diverges from materialized")
			return
		}
		t.AddRow(n, d.Size(), mt.MaxIntermediate, st.MaxIntermediate, st.MaxResident)
		sizes = append(sizes, float64(d.Size()))
		inter = append(inter, float64(mt.MaxIntermediate))
		resident = append(resident, float64(st.MaxResident))
	}
	fmt.Fprint(w, t)
	fmt.Fprintf(w, "\ngrowth exponents: intermediate %.2f, resident %.2f\n",
		stats.GrowthExponent(sizes, inter), stats.GrowthExponent(sizes, resident))
	fmt.Fprintln(w, "pipelining cannot cut the flow (Proposition 26) but cuts what is held")
}

// runST2 is ST1's counterpart for the linear algebras: on the P26
// scaling family it evaluates the SA expressions the division family
// admits (division itself is out of SA's reach, Proposition 26 — the
// semijoin/antijoin shapes are its linear core) and the Section 5
// γ-division expression with the materialized evaluators and on the
// executor, and fits the executor's resident peaks against the
// database size. SA is linear on both axes — flow and resident — and
// γ-division keeps its resident linear too, completing the story ST1
// started for pure RA, where only the resident side is linear.
func runST2(w io.Writer) {
	saExpr := sa.NewProject([]int{1}, sa.NewAntijoin(sa.R("R", 2), ra.Eq(2, 1), sa.R("S", 1)))
	xraExpr := xra.ContainmentDivision("R", "S")
	t := stats.NewTable("n", "|D|", "SA max intermediate", "SA max resident", "γ max intermediate", "γ max resident")
	var sizes, saRes, xraRes []float64
	for _, n := range []int{100, 200, 400, 800} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		saMat, saT := sa.EvalTraced(saExpr, d)
		saStr, saS := executed(plan.FromSA(saExpr), d)
		xMat, xT := xra.EvalTraced(xraExpr, d)
		xStr, xS := executed(plan.FromXRA(xraExpr), d)
		if !saMat.Equal(saStr) || !xMat.Equal(xStr) {
			fmt.Fprintln(w, "!! executor result diverges from materialized")
			return
		}
		t.AddRow(n, d.Size(), saT.MaxIntermediate, saS.MaxResident, xT.MaxIntermediate, xS.MaxResident)
		sizes = append(sizes, float64(d.Size()))
		saRes = append(saRes, float64(saS.MaxResident))
		xraRes = append(xraRes, float64(xS.MaxResident))
	}
	fmt.Fprint(w, t)
	fmt.Fprintf(w, "\nresident growth exponents: SA %.2f, γ-division %.2f (both ≈ 1: linear)\n",
		stats.GrowthExponent(sizes, saRes), stats.GrowthExponent(sizes, xraRes))
}

// runST3 measures the sharded storage layer on the P26 scaling family
// and a set-join workload: a shard.Snapshot is built at each shard
// count, division and both set joins run shard-locally (one worker
// task per shard-local batch scan, broadcast divisor/S side), and the
// table reports the per-shard resident peak
// (max and sum over shards) next to the merge's entry count and wall
// time. Every sharded result is checked byte for byte against the
// sequential algorithm on the merged relations — the equivalence the
// shard test suite proves on randomized workloads, demonstrated here
// on the benchmark family. The -shards flag pins one shard count;
// by default the sweep is 1 (delegation), 2 and 4.
func runST3(w io.Writer) {
	counts := []int{1, 2, 4}
	if shards > 0 {
		counts = []int{shards}
	}
	maxSum := func(xs []int) (mx, sum int) {
		for _, x := range xs {
			if x > mx {
				mx = x
			}
			sum += x
		}
		return mx, sum
	}
	t := stats.NewTable("op", "n", "shards", "time", "shard resident max/sum", "merge entries", "merge time")
	for _, n := range []int{200, 400, 800} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		want, _ := division.Hash{}.Divide(r, s, division.Containment)
		for _, sc := range counts {
			sdb := shard.FromStore(d, sc).Publish()
			start := time.Now()
			got, st := shard.Divide(sdb, "R", "S", division.Containment, workers)
			total := time.Since(start)
			if !sameEmission(got.Tuples(), want.Tuples()) {
				fmt.Fprintln(w, "!! sharded division diverges from sequential hash")
				return
			}
			mx, sum := maxSum(st.ShardResident)
			t.AddRow("divide", n, sc, total.Round(time.Microsecond),
				fmt.Sprintf("%d/%d", mx, sum), st.Merged, st.MergeTime.Round(time.Microsecond))
		}
	}
	wl := workload.SetJoin{RGroups: 300, SGroups: 300, MeanSize: 5, Dist: workload.Uniform,
		Domain: 60, ContainFraction: 0.1, Seed: 11}
	rRel, sRel := wl.Generate()
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, tp := range rRel.Tuples() {
		d.Add("R", tp)
	}
	for _, tp := range sRel.Tuples() {
		d.Add("S", tp)
	}
	rG, sG := setjoin.Groups(d.Rel("R")), setjoin.Groups(d.Rel("S"))
	wantC, _ := setjoin.SignatureContainment{}.Join(rG, sG)
	wantE, _ := setjoin.HashEquality{}.Join(rG, sG)
	for _, sc := range counts {
		sdb := shard.FromStore(d, sc).Publish()
		start := time.Now()
		gotC, stC := shard.ContainmentJoin(sdb, "R", "S", workers)
		tC := time.Since(start)
		start = time.Now()
		gotE, stE := shard.EqualityJoin(sdb, "R", "S", workers)
		tE := time.Since(start)
		if !sameEmission(gotC.Tuples(), wantC.Tuples()) || !sameEmission(gotE.Tuples(), wantE.Tuples()) {
			fmt.Fprintln(w, "!! sharded set join diverges from sequential")
			return
		}
		mxC, sumC := maxSum(stC.ShardResident)
		mxE, sumE := maxSum(stE.ShardResident)
		t.AddRow("contain-join", wl.RGroups, sc, tC.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", mxC, sumC), stC.Merged, stC.MergeTime.Round(time.Microsecond))
		t.AddRow("equal-join", wl.RGroups, sc, tE.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", mxE, sumE), stE.Merged, stE.MergeTime.Round(time.Microsecond))
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\nevery sharded run matched the single-store emission byte for byte; the")
	fmt.Fprintln(w, "per-shard resident column divides by the shard count while the sum stays")
	fmt.Fprintln(w, "flat — each shard holds only its own groups (plus the broadcast divisor)")
}

// runST5 drives the planner end to end on the P26 scaling family: the
// classical division expression compiled with and without the rewrite
// rules. As written, the plan streams the expression and its flow peak
// grows quadratically with the database (Proposition 26); optimized,
// the division rule replaces it by the Section 5 γ-expression and the
// same query runs on the xra engine with linear flow. The experiment
// fits both growth exponents and checks the two plans emit
// byte-identical results at every scale — the dichotomy theorem
// applied automatically, not by hand.
func runST5(w io.Writer) {
	e := ra.DivisionExpr("R", "S")
	t := stats.NewTable("n", "|D|", "flow max as written", "flow max optimized", "engine")
	var sizes, plainFlow, optFlow []float64
	var last *plan.Plan
	for _, n := range []int{100, 200, 400, 800} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		p0, err := plan.Compile(e, d, plan.Options{})
		if err != nil {
			fmt.Fprintf(w, "!! compile: %v\n", err)
			return
		}
		p1, err := plan.Compile(e, d, plan.Options{Optimize: true})
		if err != nil {
			fmt.Fprintf(w, "!! optimized compile: %v\n", err)
			return
		}
		res0, t0 := p0.ExecuteTraced()
		res1, t1 := p1.ExecuteTraced()
		want := ra.Eval(e, d).Sorted()
		if !sameEmission(res0.Tuples(), want) || !sameEmission(res1.Tuples(), want) {
			fmt.Fprintln(w, "!! a plan's result diverges from the materialized evaluation of the expression as written")
			return
		}
		t.AddRow(n, d.Size(), t0.MaxIntermediate, t1.MaxIntermediate, string(p1.Engine()))
		sizes = append(sizes, float64(d.Size()))
		plainFlow = append(plainFlow, float64(t0.MaxIntermediate))
		optFlow = append(optFlow, float64(t1.MaxIntermediate))
		last = p1
	}
	fmt.Fprint(w, t)
	for _, f := range last.Firings() {
		fmt.Fprintf(w, "\nrule fired: %s: %s", f.Rule, f.Note)
	}
	fmt.Fprintf(w, "\nflow growth exponents: as written %.2f, optimized %.2f\n",
		stats.GrowthExponent(sizes, plainFlow), stats.GrowthExponent(sizes, optFlow))
	fmt.Fprintln(w, "results byte-identical at every scale; the planner turns the quadratic")
	fmt.Fprintln(w, "expression into the linear γ-division automatically")
}

func runSJ1(w io.Writer) {
	t := stats.NewTable("groups", "algorithm", "time", "pairs considered", "verifications", "result")
	for _, n := range []int{100, 200, 400} {
		wl := workload.SetJoin{RGroups: n, SGroups: n, MeanSize: 6, Dist: workload.Uniform,
			Domain: 400, ContainFraction: 0.05, Seed: 7}
		r, s := wl.Generate()
		gr, gs := setjoin.Groups(r), setjoin.Groups(s)
		for _, alg := range setjoin.ContainmentAlgorithms() {
			start := time.Now()
			res, st := alg.Join(gr, gs)
			t.AddRow(n, alg.Name(), time.Since(start).Round(time.Microsecond),
				st.PairsConsidered, st.Verifications, res.Len())
		}
	}
	fmt.Fprint(w, t)
}

func runSJ2(w io.Writer) {
	t := stats.NewTable("groups", "algorithm", "time", "probes", "comparisons", "result")
	for _, n := range []int{200, 400, 800} {
		wl := workload.SetJoin{RGroups: n, SGroups: n, MeanSize: 4, Dist: workload.Fixed,
			Domain: 12, ContainFraction: 0, Seed: 3}
		r, s := wl.Generate()
		gr, gs := setjoin.Groups(r), setjoin.Groups(s)
		for _, alg := range setjoin.EqualityAlgorithms() {
			start := time.Now()
			res, st := alg.Join(gr, gs)
			t.AddRow(n, alg.Name(), time.Since(start).Round(time.Microsecond),
				st.Probes, st.Comparisons, res.Len())
		}
	}
	fmt.Fprint(w, t)
}

func runG5(w io.Writer) {
	t := stats.NewTable("|D|", "pure RA max intermediate", "γ-expression max intermediate")
	for _, n := range []int{100, 200, 400} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		_, raTrace := ra.EvalTraced(ra.DivisionExpr("R", "S"), d)
		_, gTrace := xra.EvalTraced(xra.ContainmentDivision("R", "S"), d)
		t.AddRow(d.Size(), raTrace.MaxIntermediate, gTrace.MaxIntermediate)
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\ngrouping/counting turns division linear (Section 5)")
}
