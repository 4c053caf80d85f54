package main

import (
	"strings"
	"testing"

	"radiv/internal/division"
	"radiv/internal/paperfigs"
	"radiv/internal/setjoin"
)

// Fig. 1's core results: the containment join pairs An and Bob with
// the flu profile (and Bob with Lyme), and the division returns
// {An, Bob} — for every algorithm.
func TestMedicalCorePath(t *testing.T) {
	d := paperfigs.Fig1()
	person := setjoin.Groups(d.Rel("Person"))
	disease := setjoin.Groups(d.Rel("Disease"))
	for _, alg := range setjoin.ContainmentAlgorithms() {
		res, _ := alg.Join(person, disease)
		if res.Len() != 3 {
			t.Errorf("%s: containment join has %d pairs, want 3", alg.Name(), res.Len())
		}
	}
	for _, alg := range division.All() {
		res, _ := alg.Divide(d.Rel("Person"), d.Rel("Symptoms"), division.Containment)
		if res.Len() != 2 {
			t.Errorf("%s: Person ÷ Symptoms has %d tuples, want 2", alg.Name(), res.Len())
		}
	}
}

// TestMedicalParallelAtTwoWorkers pins the parallel algorithms at two
// workers — the configuration CI pins, which keeps them parallel on a
// one-CPU box where the default pool would delegate to the sequential
// algorithms — on the Fig. 1 data: the parallel containment join and
// the parallel division must return exactly what the sequential
// algorithms produce, in the same order.
func TestMedicalParallelAtTwoWorkers(t *testing.T) {
	d := paperfigs.Fig1()
	person := setjoin.Groups(d.Rel("Person"))
	disease := setjoin.Groups(d.Rel("Disease"))
	want, _ := setjoin.SignatureContainment{}.Join(person, disease)
	got, _ := setjoin.ParallelSignatureContainment{Workers: 2}.Join(person, disease)
	if got.String() != want.String() {
		t.Errorf("parallel containment join:\n%vwant\n%v", got, want)
	}
	div, _ := division.Hash{}.Divide(d.Rel("Person"), d.Rel("Symptoms"), division.Containment)
	pdiv, _ := division.ParallelHash{Workers: 2}.Divide(d.Rel("Person"), d.Rel("Symptoms"), division.Containment)
	if !pdiv.Equal(div) {
		t.Errorf("parallel division:\n%vwant\n%v", pdiv, div)
	}
}

func TestMedicalRuns(t *testing.T) {
	var b strings.Builder
	run(&b)
	out := b.String()
	for _, want := range []string{"Fig. 1 database:", "parallel-hash", "scaled-up checklist sweep"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
