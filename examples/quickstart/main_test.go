package main

import (
	"strings"
	"testing"

	"radiv/internal/division"
	"radiv/internal/ra"
)

// The quickstart's core path: students 1 and 3 pass all required
// courses, and the RA expression and the hash division agree on that.
func TestQuickstartCorePath(t *testing.T) {
	d := database()
	if d.Size() != 9 {
		t.Fatalf("database size = %d, want 9", d.Size())
	}
	div := ra.Eval(ra.DivisionExpr("R", "S"), d)
	if div.Len() != 2 {
		t.Fatalf("R ÷ S has %d tuples, want 2", div.Len())
	}
	hash, _ := division.Hash{}.Divide(d.Rel("R"), d.Rel("S"), division.Containment)
	if !hash.Equal(div) {
		t.Errorf("division algorithms disagree:\nRA %vhash %v", div, hash)
	}
}

func TestQuickstartRuns(t *testing.T) {
	var b strings.Builder
	run(&b)
	out := b.String()
	for _, want := range []string{
		"database (9 tuples)",
		"classification of the division expression: quadratic",
		"classification of the semijoin query:      linear",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
