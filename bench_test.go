package radiv

// One benchmark per experiment id of cmd/radiv (radiv -list), plus the
// executor's operators. Each benchmark reports, besides time, the
// custom metrics that carry the paper's claims (max intermediate sizes, growth exponents, candidate-pair
// counts). Run with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"context"
	"fmt"
	"testing"

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
	"radiv/internal/stats"
	"radiv/internal/translate"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// BenchmarkF1MedicalExample (exp F1) runs the Fig. 1 queries.
func BenchmarkF1MedicalExample(b *testing.B) {
	d := paperfigs.Fig1()
	person := setjoin.Groups(d.Rel("Person"))
	disease := setjoin.Groups(d.Rel("Disease"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		division.Hash{}.Divide(d.Rel("Person"), d.Rel("Symptoms"), division.Containment)
		setjoin.InvertedIndexContainment{}.Join(person, disease)
	}
}

// BenchmarkF3Bisimulation (exp F3) decides the Example 12
// bisimilarity.
func BenchmarkF3Bisimulation(b *testing.B) {
	a, bb := paperfigs.Fig3()
	for i := 0; i < b.N; i++ {
		ch := bisim.NewChecker(a, bb, rel.Consts())
		if !ch.Bisimilar(rel.Ints(1, 2), rel.Ints(6, 7)) {
			b.Fatal("bisimilarity lost")
		}
	}
}

// BenchmarkF4Lemma24Pump (exp F4) builds Dn for growing n and
// evaluates the pumped join, reporting the realized quadratic ratio
// |E(Dn)|/n².
func BenchmarkF4Lemma24Pump(b *testing.B) {
	d, e := paperfigs.Fig4()
	w := core.FindWitnessAt(e, d)
	if w == nil {
		b.Fatal("no witness")
	}
	p, err := core.NewPump(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var pts []core.GrowthPoint
			for i := 0; i < b.N; i++ {
				pts = p.Measure([]int{n})
			}
			b.ReportMetric(float64(pts[0].JoinOutput)/float64(n*n), "out/n²")
			b.ReportMetric(float64(pts[0].DatabaseSize)/float64(n), "|Dn|/n")
		})
	}
}

// BenchmarkF5DivisionLowerBound (exp F5) runs the Proposition 26
// bisimilarity check.
func BenchmarkF5DivisionLowerBound(b *testing.B) {
	a, bb := paperfigs.Fig5()
	for i := 0; i < b.N; i++ {
		ch := bisim.NewChecker(a, bb, rel.Consts())
		if !ch.Bisimilar(rel.Ints(1), rel.Ints(1)) {
			b.Fatal("Proposition 26 bisimilarity lost")
		}
	}
}

// BenchmarkF6CyclicQuery (exp F6) runs the Section 4.1 check.
func BenchmarkF6CyclicQuery(b *testing.B) {
	a, bb := paperfigs.Fig6()
	for i := 0; i < b.N; i++ {
		ch := bisim.NewChecker(a, bb, rel.Consts())
		if !ch.Bisimilar(rel.Strs("alex"), rel.Strs("alex")) {
			b.Fatal("Section 4.1 bisimilarity lost")
		}
	}
}

// BenchmarkE3LousyBar (exp E3) evaluates the Example 3 query in both
// algebras on a grown beer database.
func BenchmarkE3LousyBar(b *testing.B) {
	d := workload.BeerDatabase(1, 500, 60)
	e := sa.LousyBarExpr()
	f := gf.LousyBarFormula()
	b.Run("SA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sa.Eval(e, d)
		}
	})
	b.Run("GF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gf.Answers(f, d, rel.Consts(), []gf.Var{"x"})
		}
	})
}

// BenchmarkT8Translation (exp T8) measures the Theorem 8 translations
// plus one differential evaluation.
func BenchmarkT8Translation(b *testing.B) {
	schema := rel.NewSchema(map[string]int{"Likes": 2, "Serves": 2, "Visits": 2})
	e := sa.LousyBarExpr()
	d := workload.BeerDatabase(2, 12, 5)
	for i := 0; i < b.N; i++ {
		f, vars, err := translate.ToGF(e, schema)
		if err != nil {
			b.Fatal(err)
		}
		if !gf.Answers(f, d, rel.Consts(), vars).Equal(sa.Eval(e, d)) {
			b.Fatal("Theorem 8 violated")
		}
	}
}

// BenchmarkT17Dichotomy (exp T17) classifies the canonical corpus and
// reports the measured growth exponents of both classes.
func BenchmarkT17Dichotomy(b *testing.B) {
	gen := func(scale int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for i := 0; i < scale; i++ {
			d.AddInts("R", int64(i), int64(i%7))
			d.AddInts("S", int64(3*i))
		}
		return d
	}
	linear := ra.EquiSemijoinExpr(ra.R("R", 2), ra.Eq(2, 1), ra.R("S", 1))
	quadratic := ra.DivisionExpr("R", "S")
	scales := []int{16, 32, 64, 128}
	growth := func(e ra.Expr) float64 {
		var sizes, peaks []float64
		for _, scale := range scales {
			d := gen(scale)
			_, tr := ra.EvalTraced(e, d)
			sizes = append(sizes, float64(d.Size()))
			peaks = append(peaks, float64(tr.MaxIntermediate))
		}
		return stats.GrowthExponent(sizes, peaks)
	}
	var pLin, pQuad float64
	for i := 0; i < b.N; i++ {
		pLin, pQuad = growth(linear), growth(quadratic)
	}
	b.ReportMetric(pLin, "linear-exponent")
	b.ReportMetric(pQuad, "quadratic-exponent")
}

// BenchmarkT18Linearize (exp T18) builds the Z1∪Z2 translation and
// verifies it on one seed.
func BenchmarkT18Linearize(b *testing.B) {
	e := ra.NewJoin(ra.R("R", 2), ra.Eq(2, 1), ra.NewSelectConst(1, rel.Int(4), ra.R("S", 1)))
	seeds := core.DefaultSeeds(e, 3)
	for i := 0; i < b.N; i++ {
		lin, err := core.Linearize(e)
		if err != nil {
			b.Fatal(err)
		}
		if !sa.Eval(lin, seeds[0]).Equal(ra.Eval(e, seeds[0])) {
			b.Fatal("Theorem 18 translation wrong")
		}
	}
}

// benchDivisionInput builds the P26 scaling family (divisor grows with
// n so the quadratic term is visible).
func benchDivisionInput(n int) (*rel.Relation, *rel.Relation) {
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

// BenchmarkP26Division (exps P26a, P26b) sweeps all division
// algorithms over growing inputs, reporting max materialized tuples.
func BenchmarkP26Division(b *testing.B) {
	for _, n := range []int{200, 800} {
		r, s := benchDivisionInput(n)
		for _, alg := range division.All() {
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
				var st division.Stats
				for i := 0; i < b.N; i++ {
					_, st = alg.Divide(r, s, division.Containment)
				}
				b.ReportMetric(float64(st.MaxMemoryTuples), "max-tuples")
			})
		}
	}
}

// BenchmarkP26EqualityDivision covers the equality variant.
func BenchmarkP26EqualityDivision(b *testing.B) {
	r, s := benchDivisionInput(400)
	for _, alg := range division.All() {
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Divide(r, s, division.Equality)
			}
		})
	}
}

// BenchmarkSJ1Containment (exp SJ1) sweeps the containment-join
// algorithms, reporting candidate pairs per S-group.
func BenchmarkSJ1Containment(b *testing.B) {
	for _, n := range []int{100, 400} {
		wl := workload.SetJoin{RGroups: n, SGroups: n, MeanSize: 6,
			Dist: workload.Uniform, Domain: 400, ContainFraction: 0.05, Seed: 7}
		r, s := wl.Generate()
		gr, gs := setjoin.Groups(r), setjoin.Groups(s)
		for _, alg := range setjoin.ContainmentAlgorithms() {
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
				var st setjoin.Stats
				for i := 0; i < b.N; i++ {
					_, st = alg.Join(gr, gs)
				}
				b.ReportMetric(float64(st.PairsConsidered)/float64(n), "pairs/group")
			})
		}
	}
}

// BenchmarkSJ1Zipf covers the skewed set-size distribution.
func BenchmarkSJ1Zipf(b *testing.B) {
	wl := workload.SetJoin{RGroups: 300, SGroups: 300, MeanSize: 5,
		Dist: workload.Zipf, Domain: 500, ContainFraction: 0.1, Seed: 11}
	r, s := wl.Generate()
	gr, gs := setjoin.Groups(r), setjoin.Groups(s)
	for _, alg := range setjoin.ContainmentAlgorithms() {
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Join(gr, gs)
			}
		})
	}
}

// BenchmarkSJ2Equality (exp SJ2) sweeps the equality-join algorithms.
func BenchmarkSJ2Equality(b *testing.B) {
	for _, n := range []int{200, 800} {
		wl := workload.SetJoin{RGroups: n, SGroups: n, MeanSize: 4,
			Dist: workload.Fixed, Domain: 12, ContainFraction: 0, Seed: 3}
		r, s := wl.Generate()
		gr, gs := setjoin.Groups(r), setjoin.Groups(s)
		for _, alg := range setjoin.EqualityAlgorithms() {
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					alg.Join(gr, gs)
				}
			})
		}
	}
}

// BenchmarkG5GammaDivision (exp G5) compares the quadratic pure-RA
// division expression with the linear Section 5 γ-expression,
// reporting max intermediates.
func BenchmarkG5GammaDivision(b *testing.B) {
	r, s := benchDivisionInput(400)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	b.Run("pure-RA", func(b *testing.B) {
		var tr *ra.Trace
		for i := 0; i < b.N; i++ {
			_, tr = ra.EvalTraced(ra.DivisionExpr("R", "S"), d)
		}
		b.ReportMetric(float64(tr.MaxIntermediate), "max-intermediate")
	})
	b.Run("gamma", func(b *testing.B) {
		var tr *ra.Trace
		for i := 0; i < b.N; i++ {
			_, tr = xra.EvalTraced(xra.ContainmentDivision("R", "S"), d)
		}
		b.ReportMetric(float64(tr.MaxIntermediate), "max-intermediate")
	})
}

// BenchmarkAblationJoinStrategies compares the hash-join fast path in
// the RA evaluator against pure nested loops (DESIGN.md design-choice
// ablation): the same division expression with and without equality
// atoms available to the executor.
func BenchmarkAblationJoinStrategies(b *testing.B) {
	r, s := benchDivisionInput(200)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	// Hash path: equi-join on column 1; nested path: same join
	// expressed as a product followed by a selection.
	hashJoin := ra.NewJoin(ra.R("R", 2), ra.Eq(1, 1), ra.R("R", 2))
	nested := ra.NewSelect(1, ra.OpEq, 3, ra.Product(ra.R("R", 2), ra.R("R", 2)))
	b.Run("equi-hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ra.Eval(hashJoin, d)
		}
	})
	b.Run("product-select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ra.Eval(nested, d)
		}
	})
	_ = s
}

// execute runs a plan as written at the given batch size b.N times.
func execute(b *testing.B, root *plan.Node, d rel.ReadStore, batchSize int) {
	b.ReportAllocs()
	p := plan.CompileIR(root, d, plan.Options{BatchSize: batchSize})
	for i := 0; i < b.N; i++ {
		p.Execute()
	}
}

// BenchmarkVectorizedDivision runs the classical division expression
// on the executor at batch sizes 1, 64 and 1024: batch size 1 prices
// the batch machinery with none of its amortization. allocs/op
// (visible with -benchmem) stay flat in the flow because each cursor
// refills one batch of its own and the hot loops never leave interned
// IDs.
func BenchmarkVectorizedDivision(b *testing.B) {
	r, s := benchDivisionInput(400)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	root := plan.FromRA(ra.DivisionExpr("R", "S"))
	for _, size := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("vector-%d", size), func(b *testing.B) { execute(b, root, d, size) })
	}
}

// BenchmarkVectorizedPipeline prices the pipelined
// select→project→join path on a flow-dominated workload: 5000 probe
// tuples stream through the operators, 50 reach the output, so the
// per-row costs of the pipeline — not the result sink — are what the
// allocs/op and ns/op numbers measure.
func BenchmarkVectorizedPipeline(b *testing.B) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"P": 2, "Q": 2}))
	for i := 0; i < 5000; i++ {
		d.AddInts("P", int64(i), int64(i%7))
	}
	for j := 0; j < 50; j++ {
		d.AddInts("Q", int64(100*j), int64(j))
	}
	e := ra.NewJoin(
		ra.NewProject([]int{1}, ra.NewSelect(1, ra.OpNe, 2, ra.R("P", 2))),
		ra.Eq(1, 1), ra.R("Q", 2))
	b.Run("vector", func(b *testing.B) { execute(b, plan.FromRA(e), d, 0) })
}

// BenchmarkRelationAdd measures Relation.Add with -benchmem. fresh
// fills a relation sized at construction, where an accepted tuple
// allocates nothing beyond dictionary growth; reserved starts from
// NewRelation and calls Reserve with half the tuples already in, so it
// adds the growth of that half and the one re-chaining of the dedup
// index Reserve does; dup re-adds existing tuples, and rejected
// duplicates must not allocate at all; add-batch inserts a relation's
// scan, batch by batch, into a relation over its dictionary.
func BenchmarkRelationAdd(b *testing.B) {
	tuples := make([]rel.Tuple, 4096)
	for i := range tuples {
		tuples[i] = rel.Ints(int64(i), int64(i%97))
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rel.NewRelationSized(2, len(tuples))
			for _, t := range tuples {
				r.Add(t)
			}
		}
	})
	b.Run("reserved", func(b *testing.B) {
		half := len(tuples) / 2
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rel.NewRelation(2)
			for _, t := range tuples[:half] {
				r.Add(t)
			}
			r.Reserve(len(tuples) - half)
			for _, t := range tuples[half:] {
				r.Add(t)
			}
		}
	})
	b.Run("dup", func(b *testing.B) {
		r := rel.NewRelationSized(2, len(tuples))
		for _, t := range tuples {
			r.Add(t)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range tuples {
				r.Add(t)
			}
		}
	})
	b.Run("add-batch", func(b *testing.B) {
		src := rel.NewRelationSized(2, len(tuples))
		for _, t := range tuples {
			src.Add(t)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rel.NewRelationOver(2, src.Interner())
			r.Reserve(len(tuples))
			cur := src.BatchScan()
			for bt, ok := cur.NextBatch(); ok; bt, ok = cur.NextBatch() {
				r.AddBatch(bt)
			}
		}
	})
}

// BenchmarkReadText measures the text loader with -benchmem on a
// 20 000-tuple file: ints is the R(A,B) shape of the division
// workloads, strings a Likes(drinker, beer) shape whose every value
// takes the string path of the dictionary. Allocations should scale
// with relations and distinct strings, not with tuples.
func BenchmarkReadText(b *testing.B) {
	const tuples = 20000
	var ints, strs bytes.Buffer
	for i := 0; i < tuples; i++ {
		fmt.Fprintf(&ints, "R %d,%d\n", i/20, 1000000+i%977)
		fmt.Fprintf(&strs, "Likes drinker%d,beer%d\n", i/20, i%977)
	}
	for _, c := range []struct {
		name string
		file []byte
	}{{"ints", ints.Bytes()}, {"strings", strs.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.file)))
			for i := 0; i < b.N; i++ {
				d, err := rel.ReadText(bytes.NewReader(c.file))
				if err != nil || d.Size() != tuples {
					b.Fatalf("ReadText: %v, %d tuples", err, d.Size())
				}
			}
		})
	}
}

// BenchmarkVectorizedSemijoin prices the semijoin on a flow-dominated
// probe: 20000 probe tuples stream through it, 50 survive, so the
// numbers price the per-row probe cost — not the result sink. The build side
// interns into an ID-keyed distinct-key table and the probe compacts
// batches in place through a selection vector, so at real batch sizes
// the per-probed-row cost is a column load and a set lookup — no tuple
// decode, no per-row allocation (batch size 1 prices the machinery
// with none of its amortization).
func BenchmarkVectorizedSemijoin(b *testing.B) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"P": 2, "Q": 1}))
	for i := 0; i < 20000; i++ {
		d.AddInts("P", int64(i), int64(i%7))
	}
	for j := 0; j < 50; j++ {
		d.AddInts("Q", int64(400*j))
	}
	root := plan.FromSA(sa.NewSemijoin(sa.R("P", 2), ra.Eq(1, 1), sa.R("Q", 1)))
	for _, size := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("vector-%d", size), func(b *testing.B) { execute(b, root, d, size) })
	}
}

// BenchmarkVectorizedGamma prices γ on a flow-dominated aggregate:
// 20000 input tuples collapse into 7 groups, so the numbers price the
// per-row grouping cost.
// Group keys are the input's IDs in the query's one dictionary, as
// they stand, so grouping a seen value on one key column is an array
// load (a hash of flat IDs and a chained-index walk past one) — no
// per-row tuple build, translation or re-interning.
func BenchmarkVectorizedGamma(b *testing.B) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"G": 2}))
	for i := 0; i < 20000; i++ {
		d.AddInts("G", int64(i%7), int64(i%400))
	}
	root := plan.FromXRA(xra.NewGamma([]int{1}, 2, &xra.Wrap{E: ra.R("G", 2)}))
	for _, size := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("vector-%d", size), func(b *testing.B) { execute(b, root, d, size) })
	}
}

// BenchmarkPlannerDivision (exp ST5) prices the planner on the P26
// division family: compilation itself (rewrite rules included),
// executing the expression as written, and executing the optimized
// γ-division plan. The optimized/unoptimized gap is the planner's
// payoff — the compile arm is its overhead.
func BenchmarkPlannerDivision(b *testing.B) {
	r, s := benchDivisionInput(400)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	e := ra.DivisionExpr("R", "S")
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Compile(e, d, plan.Options{Optimize: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	p0, err := plan.Compile(e, d, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p1, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unoptimized", func(b *testing.B) {
		var tr *plan.Trace
		for i := 0; i < b.N; i++ {
			_, tr = p0.ExecuteTraced()
		}
		b.ReportMetric(float64(tr.MaxIntermediate), "max-intermediate")
	})
	b.Run("optimized", func(b *testing.B) {
		var tr *plan.Trace
		for i := 0; i < b.N; i++ {
			_, tr = p1.ExecuteTraced()
		}
		b.ReportMetric(float64(tr.MaxIntermediate), "max-intermediate")
	})
}

// BenchmarkBisimScaling measures the bisimilarity decision procedure
// on growing chain databases (an ablation for the fixpoint algorithm).
func BenchmarkBisimScaling(b *testing.B) {
	build := func(n int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"E": 2}))
		for i := 0; i < n; i++ {
			d.AddInts("E", int64(i), int64(i+1))
		}
		return d
	}
	for _, n := range []int{8, 16, 32} {
		a, bb := build(n), build(n)
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch := bisim.NewChecker(a, bb, rel.Consts())
				if !ch.Bisimilar(rel.Ints(0), rel.Ints(0)) {
					b.Fatal("identical chains must be bisimilar")
				}
			}
		})
	}
}

// BenchmarkGovernedOverhead prices the fault-tolerance plumbing: the
// same division plan run ungoverned (nil governor: no guards at all)
// and through the governed Context boundary with an active context and
// a resident budget. The governed arm's only steady-state cost is one
// guard branch per batch, so the two arms must stay within noise of
// each other.
func BenchmarkGovernedOverhead(b *testing.B) {
	r, s := benchDivisionInput(400)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	root := plan.FromRA(ra.DivisionExpr("R", "S"))
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("ungoverned-%d", size), func(b *testing.B) { execute(b, root, d, size) })
		b.Run(fmt.Sprintf("governed-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p := plan.CompileIR(root, d, plan.Options{BatchSize: size, MaxResident: 1 << 30})
			for i := 0; i < b.N; i++ {
				if _, err := p.ExecuteContext(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
