package plan_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"radiv/internal/division"
	"radiv/internal/exec"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// TestConversionRoundTrip pins From*/To* as inverses over the three
// operator corpora: the IR must represent every RA, SA and XRA
// expression without loss, textual form included.
func TestConversionRoundTrip(t *testing.T) {
	check := func(e interface {
		String() string
		Arity() int
	}, n *plan.Node, back fmt.Stringer, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: no way back from the IR", e)
		}
		if back.String() != e.String() || n.String() != e.String() {
			t.Errorf("round trip changed %s to %s (IR %s)", e, back, n)
		}
		if n.Arity() != e.Arity() {
			t.Errorf("%s: IR arity %d, expression arity %d", e, n.Arity(), e.Arity())
		}
	}
	for _, c := range raCorpus() {
		n := plan.FromRA(c.e)
		back, ok := plan.ToRA(n)
		check(c.e, n, back, ok)
	}
	for _, c := range saCorpus() {
		n := plan.FromSA(c.e)
		back, ok := plan.ToSA(n)
		check(c.e, n, back, ok)
	}
	for _, c := range xraCorpus() {
		n := plan.FromXRA(c.e)
		back, ok := plan.ToXRA(n)
		check(c.e, n, back, ok)
	}
}

// TestDivisionRuleFires pins the tentpole rewrite: the classical
// division expression compiles to the γ-division plan on the xra
// engine, which Explain marks as run by the aggregate-division
// operator.
func TestDivisionRuleFires(t *testing.T) {
	d := workload.RandomDivision(1).Database()
	p, err := plan.Compile(ra.DivisionExpr("R", "S"), d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != plan.EngineXRA {
		t.Fatalf("optimized division engine = %s, want %s\n%s", p.Engine(), plan.EngineXRA, p.Explain())
	}
	if fs := p.Firings(); len(fs) != 1 || fs[0].Rule != "division" {
		t.Fatalf("firings = %v, want one division firing", fs)
	}
	if !strings.Contains(p.Explain(), "[run as aggregate division: R ÷ S, containment]") {
		t.Errorf("explain does not mark the aggregate-division operator:\n%s", p.Explain())
	}
}

// TestDivisionRuleDeclinesEmptyS pins the exactness guard: division by
// the empty set yields every candidate in RA but nothing under the
// γ-expression, so the rule must not fire.
func TestDivisionRuleDeclinesEmptyS(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	d.Add("R", rel.Tuple{rel.Int(1), rel.Int(10)})
	d.Add("R", rel.Tuple{rel.Int(2), rel.Int(11)})
	e := ra.DivisionExpr("R", "S")
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Firings() {
		if f.Rule == "division" {
			t.Fatalf("division rule fired with empty S: %v", f)
		}
	}
	got := p.Execute()
	want := ra.Eval(e, d)
	if got.String() != want.String() {
		t.Fatalf("empty-S division: got\n%s\nwant\n%s", got, want)
	}
	if got.Len() != 2 {
		t.Fatalf("division by empty S must keep all candidates, got %d", got.Len())
	}
}

// TestGammaDivisionLaw is the paper's law "γ-division ≡ division
// exactly when the divisor is nonempty" as a property. On every draw —
// workload.RandomDivision seeds 0–63 and hand-made edges — the
// executor's γ-divisions, containment and equality, as written and
// optimized, equal division.Reference when S ≠ ∅ and are empty when
// S = ∅; the classical expressions under the division rule equal
// Reference either way (the rule declines on an empty S, so RA runs as
// written); and division.Aggregate equals Reference.
func TestGammaDivisionLaw(t *testing.T) {
	type draw struct {
		name string
		d    *rel.Database
	}
	var draws []draw
	for seed := int64(0); seed < 64; seed++ {
		draws = append(draws, draw{fmt.Sprintf("seed=%d", seed), workload.RandomDivision(seed).Database()})
	}
	a, b, one := rel.Str("a"), rel.Str("b"), rel.Int(1)
	edge := func(name string, r, s []rel.Tuple) {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r {
			d.Add("R", tp)
		}
		for _, tp := range s {
			d.Add("S", tp)
		}
		draws = append(draws, draw{name, d})
	}
	edge("empty R and S", nil, nil)
	edge("empty R", nil, []rel.Tuple{{one}})
	edge("empty S", []rel.Tuple{{a, one}, {b, rel.Int(2)}}, nil)
	edge("S outside R's dictionary", []rel.Tuple{{a, one}, {b, one}}, []rel.Tuple{{one}, {rel.Int(99)}})
	edge("int S against string R", []rel.Tuple{{a, rel.Str("1")}, {b, one}}, []rel.Tuple{{one}})
	edge("all of S plus extras", []rel.Tuple{{a, one}, {a, rel.Int(2)}, {a, rel.Int(3)}, {b, one}, {b, rel.Int(2)}},
		[]rel.Tuple{{one}, {rel.Int(2)}})
	for _, dr := range draws {
		r, s := dr.d.Rel("R"), dr.d.Rel("S")
		for _, sem := range []division.Semantics{division.Containment, division.Equality} {
			want := division.Reference(r, s, sem)
			gamma, classic := xra.ContainmentDivision("R", "S"), ra.DivisionExpr("R", "S")
			if sem == division.Equality {
				gamma, classic = xra.EqualityDivision("R", "S"), ra.EqualityDivisionExpr("R", "S")
			}
			wantGamma := want
			if s.Len() == 0 {
				wantGamma = rel.NewRelation(1)
			}
			label := fmt.Sprintf("%s %s", dr.name, sem)
			for _, optimize := range []bool{false, true} {
				if got := plan.CompileIR(plan.FromXRA(gamma), dr.d, plan.Options{Optimize: optimize}).Execute(); !got.Equal(wantGamma) {
					t.Errorf("%s: γ-division (optimize=%v) = %v, want %v", label, optimize, got, wantGamma)
				}
			}
			p := plan.CompileIR(plan.FromRA(classic), dr.d, plan.Options{Optimize: true})
			if got := p.Execute(); !got.Equal(want) {
				t.Errorf("%s: optimized classical division = %v, want %v\n%s", label, got, want, p.Explain())
			}
			fired := strings.Contains(p.Explain(), "aggregate division")
			if fired && s.Len() == 0 {
				t.Errorf("%s: the γ-division replaced division by an empty S\n%s", label, p.Explain())
			}
			if got, _ := (division.Aggregate{}).Divide(r, s, sem); !got.Equal(want) {
				t.Errorf("%s: Aggregate = %v, want %v", label, got, want)
			}
		}
	}
}

// TestLinearizeRuleFires pins the dichotomy rewrite on the canonical
// semijoin-shaped idiom π_l(l ⋈ π_keys(r)): structurally linear, so
// the optimized plan runs on the SA engine with semijoin operators.
func TestLinearizeRuleFires(t *testing.T) {
	d := setJoinDatabase(0)
	e := ra.EquiSemijoinExpr(ra.R("R", 2), ra.Eq(2, 1), ra.NewProject([]int{1}, ra.R("S", 2)))
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != plan.EngineSA {
		t.Fatalf("optimized semijoin-shape engine = %s, want %s\n%s", p.Engine(), plan.EngineSA, p.Explain())
	}
	fired := false
	for _, f := range p.Firings() {
		if f.Rule == "linearize" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("linearize did not fire: %v", p.Firings())
	}
	got := p.Execute()
	want, err2 := plan.Compile(e, d, plan.Options{})
	if err2 != nil {
		t.Fatal(err2)
	}
	if got.String() != want.Execute().String() {
		t.Fatalf("linearized plan differs from unoptimized")
	}
}

// TestLinearizeRuleDeclinesDivision pins the other half of the
// dichotomy: the division expression's product join has unconstrained
// columns on both sides, so no exact SA= rewrite exists and the
// linearize rule must leave it alone (the division rule owns it).
func TestLinearizeRuleDeclinesDivision(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "T": 1}))
	d.Add("R", rel.Tuple{rel.Int(1), rel.Int(10)})
	d.Add("T", rel.Tuple{rel.Int(10)})
	// Division of R by T, but with the candidate set replaced by a
	// selection so the division rule's shape does not match either:
	// nothing may fire, and the plan must stay on the RA engine.
	cand := ra.NewProject([]int{1}, ra.NewSelect(1, ra.OpNe, 2, ra.R("R", 2)))
	e := ra.NewDiff(cand, ra.NewProject([]int{1},
		ra.NewDiff(ra.Product(cand, ra.R("T", 1)), ra.R("R", 2))))
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Firings()) != 0 {
		t.Fatalf("rules fired on a quadratic plan with no linear rewrite: %v", p.Firings())
	}
	if p.Engine() != plan.EngineRA {
		t.Fatalf("engine = %s, want %s", p.Engine(), plan.EngineRA)
	}
}

// TestJoinOrderRuleCommutes pins join commutation: with a small probe
// side and a large build side the rule swaps them and restores column
// order with a projection, and results stay identical.
func TestJoinOrderRuleCommutes(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"Big": 2, "Tiny": 2}))
	for i := 0; i < 400; i++ {
		d.Add("Big", rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i % 7))})
	}
	d.Add("Tiny", rel.Tuple{rel.Int(3), rel.Int(1)})
	d.Add("Tiny", rel.Tuple{rel.Int(4), rel.Int(2)})
	// Tiny ⋈ Big on a non-key pair: Big is the build side and 200x
	// larger, so commutation pays for the restoring projection.
	e := ra.NewJoin(ra.R("Tiny", 2), ra.Gt(1, 2), ra.R("Big", 2))
	// Gt has no equality atom — the rule must decline (stored replay).
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Firings() {
		if f.Rule == "joinorder" {
			t.Fatalf("joinorder fired on a θ-only join: %v", f)
		}
	}
	// With an equality atom it must fire and stay exact.
	e = ra.NewJoin(ra.R("Tiny", 2), ra.Eq(2, 2).And(ra.A(1, ra.OpLt, 1)), ra.R("Big", 2))
	p, err = plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, f := range p.Firings() {
		if f.Rule == "joinorder" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("joinorder did not fire on a 200x build side: %v\n%s", p.Firings(), p.Explain())
	}
	p0, err := plan.Compile(e, d, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Execute().String() != p0.Execute().String() {
		t.Fatal("commuted join differs from unoptimized")
	}
}

// TestJoinRulesKeepGammaDivision pins that -optimize does not undo the
// aggregate-division operator: the equality γ-division's inner join
// has a build side larger than its probe side, so joinorder used to
// commute it, the subtree stopped matching, and the plan ran as five
// operators holding the whole join. Optimized, both γ-divisions must
// still be marked, fire no join rule, and hold exactly what the
// as-written plan holds.
func TestJoinRulesKeepGammaDivision(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, c := range []struct {
			sem  string
			expr *plan.Node
		}{
			{"containment", plan.FromXRA(xra.ContainmentDivision("R", "S"))},
			{"equality", plan.FromXRA(xra.EqualityDivision("R", "S"))},
		} {
			label := fmt.Sprintf("seed=%d %s", seed, c.sem)
			opt := plan.CompileIR(c.expr, d, plan.Options{Optimize: true})
			if !strings.Contains(opt.Explain(), "[run as aggregate division: R ÷ S, "+c.sem+"]") {
				t.Errorf("%s: optimized plan is not the aggregate division:\n%s", label, opt.Explain())
			}
			for _, f := range opt.Firings() {
				if f.Rule == "joinorder" || f.Rule == "semijoin" {
					t.Errorf("%s: %s rewrote a join of the γ-division: %s", label, f.Rule, f.Note)
				}
			}
			got, gotTr := opt.ExecuteTraced()
			want, wantTr := plan.CompileIR(c.expr, d, plan.Options{}).ExecuteTraced()
			if !got.Equal(want) {
				t.Errorf("%s: optimized %v, as written %v", label, got, want)
			}
			if gotTr.MaxResident != wantTr.MaxResident {
				t.Errorf("%s: optimized MaxResident %d, as written %d", label, gotTr.MaxResident, wantTr.MaxResident)
			}
		}
	}
}

// TestSemijoinReduceRuleFires pins semijoin reduction: a huge,
// mostly-partnerless build side behind a tiny probe side is reduced,
// the plan leaves pure RA (it now holds a semijoin), and results stay
// identical.
func TestSemijoinReduceRuleFires(t *testing.T) {
	// Probe is big enough that commuting the join is priced as useless
	// (the estimated output exceeds the resident saving), but the build
	// side is still 40x larger, so pre-filtering it by the probe keys
	// wins.
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"Small": 2, "Huge": 2}))
	for i := 0; i < 100; i++ {
		d.Add("Small", rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i))})
	}
	for i := 0; i < 4000; i++ {
		d.Add("Huge", rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i))})
	}
	e := ra.NewJoin(ra.R("Small", 2), ra.Eq(2, 1).And(ra.A(1, ra.OpLt, 2)), ra.R("Huge", 2))
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, f := range p.Firings() {
		if f.Rule == "semijoin" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("semijoin reduction did not fire: %v\n%s", p.Firings(), p.Explain())
	}
	if p.Engine() != plan.EngineMixed {
		t.Fatalf("reduced join engine = %s, want %s", p.Engine(), plan.EngineMixed)
	}
	p0, err := plan.Compile(e, d, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Execute().String() != p0.Execute().String() {
		t.Fatal("reduced join differs from unoptimized")
	}
}

// TestBudgetExcludesRootUnionResult pins the MaxResident contract on a
// plan no single algebra expresses: a union at the root drains into the
// result, which is not operator state. Semijoin reduction makes the
// plan mixed; what it holds is the reducer's 100 distinct keys plus the
// join's 100 surviving build rows, so a 1000-tuple budget must pass
// although the result has 4000 tuples.
func TestBudgetExcludesRootUnionResult(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"Small": 2, "Huge": 2}))
	for i := 0; i < 100; i++ {
		d.Add("Small", rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i))})
	}
	for i := 0; i < 4000; i++ {
		d.Add("Huge", rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i))})
	}
	join := ra.NewJoin(ra.R("Small", 2), ra.Eq(2, 1).And(ra.A(1, ra.OpLt, 2)), ra.R("Huge", 2))
	e := ra.NewUnion(ra.NewProject([]int{1, 2}, join), ra.R("Huge", 2))
	p, err := plan.Compile(e, d, plan.Options{Optimize: true, Limits: exec.Limits{MaxResident: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != plan.EngineMixed {
		t.Fatalf("engine = %s, want %s\n%s", p.Engine(), plan.EngineMixed, p.Explain())
	}
	res, tr := p.ExecuteTraced()
	if tr.MaxResident != 200 {
		t.Errorf("MaxResident = %d, want 200 (the result is not operator state)", tr.MaxResident)
	}
	if want := ra.Eval(e, d); res.String() != want.String() {
		t.Error("result differs from the materialized evaluation")
	}
	governed, _, err := p.ExecuteTracedContext(context.Background())
	if err != nil {
		t.Fatalf("a 1000-tuple budget aborted a plan that holds 200: %v", err)
	}
	if governed.String() != res.String() {
		t.Error("governed result differs from ungoverned")
	}
}

// TestExplainEstimates pins the explain format: per-node estimates
// appear for every operator in the tree.
func TestExplainEstimates(t *testing.T) {
	d := workload.Division{Groups: 40, GroupSize: 4, DivisorSize: 3,
		MatchFraction: 0.5, Domain: 16, Seed: 7}.Database()
	p, err := plan.Compile(ra.DivisionExpr("R", "S"), d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"engine: xra", "gamma[1;count(2)]", "est rows", "rules fired:", "division"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestCompileRejectsInvalid pins the error path: a malformed
// expression (name/arity mismatch against the schema is caught at
// execution, structural errors at compile) returns an error instead of
// panicking.
func TestCompileRejectsInvalid(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	bad := &ra.Project{Cols: []int{7}, E: ra.R("R", 2)}
	if _, err := plan.Compile(bad, d, plan.Options{}); err == nil {
		t.Fatal("Compile accepted an out-of-range projection")
	}
}

// setJoinDatabase wraps a RandomSetJoin draw into a database over
// {R/2, S/2}.
func setJoinDatabase(seed int64) *rel.Database {
	r, s := workload.RandomSetJoin(seed).Generate()
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	return d
}
