package plan_test

import (
	"testing"

	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/rel"
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
