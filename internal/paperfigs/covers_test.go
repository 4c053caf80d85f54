package paperfigs

// Corollary 14 as a property: SA= cannot tell C-guarded bisimilar
// pointed databases apart, and linear RA equals SA= (Theorem 18). So on
// any (A, ā) ∼ (B, b̄) every SA plan, and every RA expression that
// core.Classify calls Linear, must answer ā ∈ e(A) ⟺ b̄ ∈ e(B) — a
// check of one executor against itself on two databases, which needs
// no second evaluator and which a dependence on dictionary order, hash
// seed or row order breaks.
//
// The pairs come from order-preserving twisted double covers: every
// value v of A becomes 2v and 2v+1 in B, and every tuple of A two
// copies, copy c lifting each value v to 2v+c except that the last
// column of a crossed tuple takes the other copy's parity. Any choice of
// parities keeps the order comparisons of SA, because u < v gives
// 2u+1 < 2v. Whether a binary tuple is crossed is decided per value
// set, so R(u,v) and R(v,u) cross together (crossing one alone breaks
// the back-and-forth); a tuple that repeats a value is never crossed.
// bisim.Checker confirms every pair the test uses, so a cover bug
// cannot pass silently.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"radiv/internal/bisim"
	"radiv/internal/core"
	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
)

var coverSchema = rel.NewSchema(map[string]int{"R": 2, "S": 1})

// coverSA are SA expressions without constants (C = ∅): equality and
// θ-semijoins, antijoins, selections and the set operators. Only those
// in SA= (sa.IsEquiOnly) are held to invariance: an order atom across
// the two sides of a semijoin compares values of two guarded sets, and
// a cover lifts one value of A to two ordered ones in B, so 4 < 4 fails
// in A where 8 < 9 holds in B. The θ-semijoins are held to the flow
// bound (c).
var coverSA = []string{
	"semijoin[2=1](R, S)",
	"project[1](semijoin[2=1](R, S))",
	"antijoin[2=1](R, S)",
	"semijoin[1<1](R, S)",
	"antijoin[2=1,1<1](R, S)",
	"semijoin[1=2](R, R)",
	"semijoin[2>1](project[2,1](R), R)",
	"union(S, project[2](R))",
	"diff(project[1](R), project[2](R))",
	"select[1<2](R)",
	"project[1](antijoin[1=2](R, semijoin[2=1](R, S)))",
}

// coverRA are RA expressions without constants, linear and quadratic;
// Classify decides which are held to invariance. The last two are the
// classical division and set-containment join, which must each differ
// on some cover.
var coverRA = []string{
	"join[2=1](R, S)",
	"project[2](join[2=1](R, S))",
	"join[1=1,2=2](R, R)",
	"project[1](join[2=1](R, R))",
	"diff(project[1](R), project[1](join[2=1](R, S)))",
	"join[2=1](R, R)",
	"project[1,4](join[2=1](R, R))",
	ra.DivisionExpr("R", "S").String(),
	ra.SetContainmentJoinExpr("R", "R").String(),
}

// randomBase returns a small random A over R/2 and S/1 on the values
// 0..4.
func randomBase(rng *rand.Rand) *rel.Database {
	a := rel.NewDatabase(coverSchema)
	for range 2 + rng.IntN(6) {
		a.AddInts("R", rng.Int64N(5), rng.Int64N(5))
	}
	for range 1 + rng.IntN(3) {
		a.AddInts("S", rng.Int64N(5))
	}
	return a
}

// twistedCover returns B and lift, the copy c of tuple t of A in B.
func twistedCover(a *rel.Database, rng *rand.Rand) (*rel.Database, func(t rel.Tuple, c int64) rel.Tuple) {
	crossed := map[[2]int64]bool{}
	cross := func(t rel.Tuple) int64 {
		if len(t) != 2 || t[0].Equal(t[1]) {
			return 0
		}
		k := [2]int64{min(t[0].AsInt(), t[1].AsInt()), max(t[0].AsInt(), t[1].AsInt())}
		x, ok := crossed[k]
		if !ok {
			x = rng.IntN(2) == 1
			crossed[k] = x
		}
		if x {
			return 1
		}
		return 0
	}
	lift := func(t rel.Tuple, c int64) rel.Tuple {
		x := cross(t)
		u := make(rel.Tuple, len(t))
		for i, v := range t {
			bit := c
			if i == len(t)-1 {
				bit ^= x
			}
			u[i] = rel.Int(2*v.AsInt() + bit)
		}
		return u
	}
	// B gets its tuples in a shuffled order, so its dictionary and row
	// order owe nothing to A's: an executor that answers by ID order
	// or row order answers A and B differently.
	type row struct {
		name string
		t    rel.Tuple
	}
	var rows []row
	for _, name := range coverSchema.Names() {
		for _, t := range a.Rel(name).Tuples() {
			rows = append(rows, row{name, lift(t, 0)}, row{name, lift(t, 1)})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	b := rel.NewDatabase(a.Schema())
	for _, r := range rows {
		b.Add(r.name, r.t)
	}
	return b, lift
}

// pointedPair is one confirmed (A, ā) ∼ (B, b̄).
type pointedPair struct{ a, b rel.Tuple }

// coverPairs returns pointed pairs of arity 1 and 2, each confirmed by
// the checker: every value of A against both its copies, every R tuple
// (and its swap) against both of its lifts, and pairs of first-column
// values — which need not share a tuple — against mixed copies.
func coverPairs(t *testing.T, a, b *rel.Database, lift func(rel.Tuple, int64) rel.Tuple, rng *rand.Rand) map[int][]pointedPair {
	t.Helper()
	ch := bisim.NewChecker(a, b, rel.Consts())
	out := map[int][]pointedPair{}
	use := func(x, y rel.Tuple) {
		if !ch.Bisimilar(x, y) {
			t.Fatalf("cover bug: (A, %v) and (B, %v) not bisimilar\nA:\n%s\nB:\n%s", x, y, a, b)
		}
		out[len(x)] = append(out[len(x)], pointedPair{x, y})
	}
	for _, v := range a.ActiveDomain() {
		use(rel.T(v), rel.Ints(2*v.AsInt()))
		use(rel.T(v), rel.Ints(2*v.AsInt()+1))
	}
	firsts := a.Rel("R").Project(1).Tuples()
	for _, r := range a.Rel("R").Tuples() {
		for c := range int64(2) {
			l := lift(r, c)
			use(r, l)
			if !r[0].Equal(r[1]) {
				use(rel.T(r[1], r[0]), rel.T(l[1], l[0]))
			}
		}
	}
	for range 4 {
		x, y := firsts[rng.IntN(len(firsts))][0], firsts[rng.IntN(len(firsts))][0]
		if x.Equal(y) || a.Rel("R").Contains(rel.T(x, y)) || a.Rel("R").Contains(rel.T(y, x)) {
			continue // guarded or equal: the lifts above cover it
		}
		use(rel.T(x, y), rel.Ints(2*x.AsInt()+rng.Int64N(2), 2*y.AsInt()+rng.Int64N(2)))
	}
	return out
}

// runs evaluates one expression every way the executor and the oracle
// can: the materialized Eval, the compiled IR at batch sizes 1 and
// 1024, and the optimized plan.
type runs struct {
	name string
	eval func(d *rel.Database) *rel.Relation
}

func saRuns(e sa.Expr) []runs {
	ir := func(opts plan.Options) func(*rel.Database) *rel.Relation {
		return func(d *rel.Database) *rel.Relation { return plan.CompileIR(plan.FromSA(e), d, opts).Execute() }
	}
	return []runs{
		{"sa.Eval", func(d *rel.Database) *rel.Relation { return sa.Eval(e, d) }},
		{"CompileIR batch 1", ir(plan.Options{BatchSize: 1})},
		{"CompileIR batch 1024", ir(plan.Options{BatchSize: 1024})},
		{"Optimize", ir(plan.Options{Optimize: true})},
	}
}

func raRuns(e ra.Expr) []runs {
	ir := func(opts plan.Options) func(*rel.Database) *rel.Relation {
		return func(d *rel.Database) *rel.Relation { return plan.CompileIR(plan.FromRA(e), d, opts).Execute() }
	}
	return []runs{
		{"ra.Eval", func(d *rel.Database) *rel.Relation { return ra.Eval(e, d) }},
		{"CompileIR batch 1", ir(plan.Options{BatchSize: 1})},
		{"CompileIR batch 1024", ir(plan.Options{BatchSize: 1024})},
		{"Optimize", ir(plan.Options{Optimize: true})},
	}
}

// differs reports the first confirmed pair of e's arity on which a run
// answers differently on A and B, or "" when every run agrees on every
// pair.
func differs(rs []runs, arity int, a, b *rel.Database, pairs map[int][]pointedPair) string {
	for _, r := range rs {
		ea, eb := r.eval(a), r.eval(b)
		for _, p := range pairs[arity] {
			if ea.Contains(p.a) != eb.Contains(p.b) {
				return fmt.Sprintf("%s: %v ∈ e(A) is %v, %v ∈ e(B) is %v", r.name, p.a, ea.Contains(p.a), p.b, eb.Contains(p.b))
			}
		}
	}
	return ""
}

// leaves is L(e), the number of relation leaves of an SA expression.
func leaves(e sa.Expr) int {
	n := 0
	sa.Walk(e, func(x sa.Expr) {
		if _, ok := x.(*sa.Rel); ok {
			n++
		}
	})
	return n
}

// TestBisimilarCoversAgree checks Corollary 14 and Theorem 18 on
// twisted double covers of random databases: (a) every SA= plan and
// every expression Classify calls Linear answers alike on every
// confirmed pair, through Eval, the executor at batch sizes 1 and 1024,
// and the optimizer; (b) division and the set-containment join each
// differ on some cover, and nothing seen to differ is classified
// Linear; (c) every SA plan keeps MaxIntermediate and MaxResident
// within L(e)·|D|.
func TestBisimilarCoversAgree(t *testing.T) {
	saExprs := make([]sa.Expr, len(coverSA))
	for i, src := range coverSA {
		e, err := parser.ParseSA(src, coverSchema)
		if err != nil {
			t.Fatal(err)
		}
		saExprs[i] = e
	}
	raExprs := make([]ra.Expr, len(coverRA))
	linear := make([]bool, len(coverRA))
	for i, src := range coverRA {
		e, err := parser.ParseRA(src, coverSchema)
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.Classify(e, nil)
		if err != nil {
			t.Fatalf("Classify(%s): %v", src, err)
		}
		raExprs[i], linear[i] = e, v.Class == core.Linear
	}
	differed := make([]bool, len(coverRA))
	rng := rand.New(rand.NewPCG(16, 14))
	for cover := range 30 {
		a := randomBase(rng)
		b, lift := twistedCover(a, rng)
		pairs := coverPairs(t, a, b, lift, rng)
		for i, e := range saExprs {
			if !sa.IsEquiOnly(e) {
				// Outside SA=: not invariant, see coverSA.
			} else if why := differs(saRuns(e), e.Arity(), a, b, pairs); why != "" {
				t.Errorf("cover %d, SA %s differs on a bisimilar pair: %s\nA:\n%s\nB:\n%s", cover, coverSA[i], why, a, b)
			}
			for _, d := range []*rel.Database{a, b} {
				_, tr := plan.CompileIR(plan.FromSA(e), d, plan.Options{}).ExecuteTraced()
				if bound := leaves(e) * d.Size(); tr.MaxIntermediate > bound || tr.MaxResident > bound {
					t.Errorf("cover %d, SA %s: max intermediate %d, max resident %d, L(e)·|D| = %d\n%s",
						cover, coverSA[i], tr.MaxIntermediate, tr.MaxResident, bound, d)
				}
			}
		}
		for i, e := range raExprs {
			why := differs(raRuns(e), e.Arity(), a, b, pairs)
			if why == "" {
				continue
			}
			differed[i] = true
			if linear[i] {
				t.Errorf("cover %d, %s is classified Linear but differs on a bisimilar pair: %s\nA:\n%s\nB:\n%s", cover, coverRA[i], why, a, b)
			}
		}
	}
	for _, i := range []int{len(coverRA) - 2, len(coverRA) - 1} {
		if !differed[i] {
			t.Errorf("%s answered alike on every cover: the covers do not separate it from SA", coverRA[i])
		}
	}
}
