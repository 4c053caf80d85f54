package parser

import "testing"

// FuzzParse holds the three parsers to two properties on any input:
// none of them panics, and for RA and SA the String rendering of
// whatever parses re-parses to an expression with the same rendering.
// The schema adds an arity-0 relation Z to the test schema. The seed
// corpus (testdata/fuzz/FuzzParse) holds the division, set-join and
// lousy-bar expressions, project[](R), arity-0 relations and
// θ-conditions with <; CI runs
//
//	go test -run='^$' -fuzz=FuzzParse -fuzztime=10s -fuzzminimizetime=0 ./internal/parser
func FuzzParse(f *testing.F) {
	schema := testSchema()
	schema["Z"] = 0
	f.Fuzz(func(t *testing.T, src string) {
		if e, err := ParseRA(src, schema); err == nil {
			out := e.String()
			back, err := ParseRA(out, schema)
			if err != nil {
				t.Fatalf("ParseRA(%q) renders as %q, which does not re-parse: %v", src, out, err)
			}
			if got := back.String(); got != out {
				t.Fatalf("ParseRA(%q): rendering %q re-parses to %q", src, out, got)
			}
		}
		if e, err := ParseSA(src, schema); err == nil {
			out := e.String()
			back, err := ParseSA(out, schema)
			if err != nil {
				t.Fatalf("ParseSA(%q) renders as %q, which does not re-parse: %v", src, out, err)
			}
			if got := back.String(); got != out {
				t.Fatalf("ParseSA(%q): rendering %q re-parses to %q", src, out, got)
			}
		}
		ParseGF(src)
	})
}
