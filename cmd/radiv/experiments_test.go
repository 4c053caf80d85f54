package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestExperimentsRun smoke-tests every experiment: each must produce
// output and must not panic.
func TestExperimentsRun(t *testing.T) {
	for _, e := range experiments() {
		var buf bytes.Buffer
		e.Run(&buf)
		if buf.Len() == 0 {
			t.Errorf("experiment %s produced no output", e.ID)
		}
	}
}

// TestExperimentIDsUnique guards the registry.
func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.ID)
		}
	}
	for _, id := range []string{"F1", "F2", "F3", "F4", "F5", "F6", "E3", "T8", "T17", "P26", "SJ1", "SJ2", "G5", "ST1", "ST2", "ST3", "ST5", "ST6"} {
		if !seen[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

// TestExperimentOutputsCarryTheClaims spot-checks that the printed
// tables contain the paper's headline facts.
func TestExperimentOutputsCarryTheClaims(t *testing.T) {
	get := func(id string) string {
		for _, e := range experiments() {
			if e.ID == id {
				var buf bytes.Buffer
				e.Run(&buf)
				return buf.String()
			}
		}
		t.Fatalf("experiment %s not found", id)
		return ""
	}
	if out := get("F5"); !strings.Contains(out, "A,1 ~C B,1: true") {
		t.Errorf("F5 lost the bisimilarity claim:\n%s", out)
	}
	if out := get("F4"); !strings.Contains(out, "1024") {
		t.Errorf("F4 should reach |E(D32)| = 1024:\n%s", out)
	}
	if out := get("T17"); !strings.Contains(out, "quadratic") || !strings.Contains(out, "linear") {
		t.Errorf("T17 missing verdicts:\n%s", out)
	}
	if out := get("E3"); !strings.Contains(out, "bart") {
		t.Errorf("E3 lost the lousy-bar answer:\n%s", out)
	}
	if out := get("T8"); !strings.Contains(out, "12/12") {
		t.Errorf("T8 differential check failing:\n%s", out)
	}
	if out := get("ST1"); !strings.Contains(out, "resident") || strings.Contains(out, "diverges") {
		t.Errorf("ST1 lost the resident-vs-intermediate claim:\n%s", out)
	}
	if out := get("ST2"); !strings.Contains(out, "both ≈ 1: linear") || strings.Contains(out, "diverges") {
		t.Errorf("ST2 lost the linear-resident claim:\n%s", out)
	}
	if out := get("ST3"); !strings.Contains(out, "byte for byte") || strings.Contains(out, "diverges") {
		t.Errorf("ST3 lost the sharded byte-identity claim:\n%s", out)
	}
	if out := get("ST5"); !strings.Contains(out, "rule fired: division") || !strings.Contains(out, "xra") ||
		strings.Contains(out, "diverges") {
		t.Errorf("ST5 lost the planner claim:\n%s", out)
	}
	if out := get("ST6"); !strings.Contains(out, "byte for byte") || strings.Contains(out, "diverges") ||
		!strings.Contains(out, "== materialized ra.Eval") || !strings.Contains(out, "nothing leaked") {
		t.Errorf("ST6 lost the sharded byte-identity or executor-vs-oracle claims:\n%s", out)
	}
}

// TestST5FlowExponents parses the fitted flow exponents out of the ST5
// report and pins the planner's headline: the division family runs
// quadratic as written and linear once optimized, with identical
// results (any divergence replaces the exponent line).
func TestST5FlowExponents(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range experiments() {
		if e.ID == "ST5" {
			e.Run(&buf)
		}
	}
	out := buf.String()
	idx := strings.Index(out, "flow growth exponents:")
	if idx < 0 {
		t.Fatalf("ST5 output lacks the exponent line (divergence?):\n%s", out)
	}
	var plain, opt float64
	if _, err := fmt.Sscanf(out[idx:],
		"flow growth exponents: as written %f, optimized %f", &plain, &opt); err != nil {
		t.Fatalf("cannot parse exponents from ST5 output: %v\n%s", err, out)
	}
	if plain < 1.7 || plain > 2.3 {
		t.Errorf("as-written flow exponent %.2f, want ≈ 2.0", plain)
	}
	if opt < 0.7 || opt > 1.3 {
		t.Errorf("optimized flow exponent %.2f, want ≈ 1.0", opt)
	}
}

// TestST2ResidentExponentsLinear parses the fitted exponents out of
// the ST2 report and pins them near 1, the acceptance bar for SA and
// γ plans on the executor.
func TestST2ResidentExponentsLinear(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range experiments() {
		if e.ID == "ST2" {
			e.Run(&buf)
		}
	}
	out := buf.String()
	idx := strings.Index(out, "resident growth exponents:")
	if idx < 0 {
		t.Fatalf("ST2 output lacks the exponent line (divergence?):\n%s", out)
	}
	var saExp, xraExp float64
	if _, err := fmt.Sscanf(out[idx:],
		"resident growth exponents: SA %f, γ-division %f", &saExp, &xraExp); err != nil {
		t.Fatalf("cannot parse exponents from ST2 output: %v\n%s", err, out)
	}
	if saExp < 0.7 || saExp > 1.3 {
		t.Errorf("SA resident exponent %.2f, want ≈ 1.0", saExp)
	}
	if xraExp < 0.7 || xraExp > 1.3 {
		t.Errorf("γ-division resident exponent %.2f, want ≈ 1.0", xraExp)
	}
}

func TestExperimentsSorted(t *testing.T) {
	es := experimentsSorted()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Errorf("experiments not sorted: %s before %s", es[i-1].ID, es[i].ID)
		}
	}
}
