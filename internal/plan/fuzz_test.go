package plan_test

import (
	"context"
	"fmt"
	"testing"

	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
)

// FuzzConvert holds the IR conversions to a round trip: for any input
// that parses as RA (or SA) over R/2, S/1, T/3, ToRA(FromRA(e)) (or
// ToSA(FromSA(e))) succeeds and renders exactly as e. The seed corpus
// (testdata/fuzz/FuzzConvert) is FuzzParse's seed strings, a few
// expressions over the arity-3 T, and sa-semijoin-no-atom: SA once
// accepted the empty condition semijoin[true], which the IR refuses.
// CI runs
//
//	go test -run='^$' -fuzz=FuzzConvert -fuzztime=10s -fuzzminimizetime=0 ./internal/plan
func FuzzConvert(f *testing.F) {
	schema := rel.NewSchema(map[string]int{"R": 2, "S": 1, "T": 3})
	f.Fuzz(func(t *testing.T, src string) {
		if e, err := parser.ParseRA(src, schema); err == nil {
			back, ok := plan.ToRA(plan.FromRA(e))
			if !ok {
				t.Fatalf("ToRA(FromRA(%s)) fails", e)
			}
			if got, want := back.String(), e.String(); got != want {
				t.Fatalf("ToRA(FromRA(%s)) renders as %s", want, got)
			}
		}
		if e, err := parser.ParseSA(src, schema); err == nil {
			back, ok := plan.ToSA(plan.FromSA(e))
			if !ok {
				t.Fatalf("ToSA(FromSA(%s)) fails", e)
			}
			if got, want := back.String(), e.String(); got != want {
				t.Fatalf("ToSA(FromSA(%s)) renders as %s", want, got)
			}
		}
	})
}

// FuzzPlan holds the executor to the materialized evaluators on
// generated expressions and databases. The string is parsed as RA and
// as SA over FuzzConvert's schema (R/2, S/1, T/3); the bytes decode
// into a small database of ints 0–3 and strings "0"–"3" (planDatabase),
// so int 1 sits beside string "1" and any relation may be empty. Every
// expression that parses runs through CompileIR as written and
// optimized, at batch sizes 1 and 1024, through Execute and
// ExecuteContext, and each result must equal the algebra's own Eval in
// canonical order. The seed corpus (testdata/fuzz/FuzzPlan) pairs
// FuzzConvert's seed strings with a few databases. CI runs
//
//	go test -run='^$' -fuzz=FuzzPlan -fuzztime=10s -fuzzminimizetime=0 ./internal/plan
func FuzzPlan(f *testing.F) {
	schema := rel.NewSchema(map[string]int{"R": 2, "S": 1, "T": 3})
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		d := planDatabase(schema, data)
		if e, err := parser.ParseRA(src, schema); err == nil {
			checkPlan(t, plan.FromRA(e), d, func() *rel.Relation { return ra.Eval(e, d) })
		}
		if e, err := parser.ParseSA(src, schema); err == nil {
			checkPlan(t, plan.FromSA(e), d, func() *rel.Relation { return sa.Eval(e, d) })
		}
	})
}

// planValues is FuzzPlan's domain: a value byte picks one of them.
var planValues = []rel.Value{
	rel.Int(0), rel.Int(1), rel.Int(2), rel.Int(3),
	rel.Str("0"), rel.Str("1"), rel.Str("2"), rel.Str("3"),
}

// planDatabase decodes data into a database over schema: for each
// relation in name order, a byte gives its row count (0–5) and then
// one byte per attribute picks each value from planValues. Missing
// bytes leave the rest of the database empty.
func planDatabase(schema rel.Schema, data []byte) *rel.Database {
	d := rel.NewDatabase(schema)
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		c := data[0]
		data = data[1:]
		return c, true
	}
	for _, name := range schema.Names() {
		n, ok := next()
		if !ok {
			break
		}
		tp := make(rel.Tuple, schema[name])
	rows:
		for range int(n) % 6 {
			for k := range tp {
				c, ok := next()
				if !ok {
					break rows
				}
				tp[k] = planValues[int(c)%len(planValues)]
			}
			d.Add(name, tp)
		}
	}
	return d
}

// planBound is an upper bound on the rows any node of n produces over
// d, so FuzzPlan can skip the products a long string nests.
func planBound(n *plan.Node, d *rel.Database) int {
	var kids []int
	for _, k := range n.Kids {
		kids = append(kids, planBound(k, d))
	}
	switch n.Kind {
	case plan.KRel:
		return d.Rel(n.Name).Len()
	case plan.KUnion:
		return kids[0] + kids[1]
	case plan.KJoin:
		return kids[0] * kids[1]
	case plan.KGamma:
		return max(kids[0], 1)
	}
	return kids[0]
}

// checkPlan runs root over d in every FuzzPlan configuration and holds
// each result to oracle's, sorted.
func checkPlan(t *testing.T, root *plan.Node, d *rel.Database, oracle func() *rel.Relation) {
	t.Helper()
	if planBound(root, d) > 4096 {
		return
	}
	got := oracle()
	want := rel.NewRelationSized(got.Arity(), got.Len())
	for _, tp := range got.Sorted() {
		want.Add(tp)
	}
	for _, optimize := range []bool{false, true} {
		for _, batch := range []int{1, 1024} {
			p := plan.CompileIR(root, d, plan.Options{Optimize: optimize, BatchSize: batch})
			label := fmt.Sprintf("%s optimize=%v batch=%d", root, optimize, batch)
			if err := sameEmission(want, p.Execute()); err != nil {
				t.Fatalf("%s: Execute differs from Eval: %v", label, err)
			}
			res, err := p.ExecuteContext(context.Background())
			if err != nil {
				t.Fatalf("%s: ExecuteContext: %v", label, err)
			}
			if err := sameEmission(want, res); err != nil {
				t.Fatalf("%s: ExecuteContext differs from Eval: %v", label, err)
			}
		}
	}
}
