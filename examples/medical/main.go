// Medical: the paper's Fig. 1 scenario end to end — patients with
// symptom sets, diseases with symptom profiles, a symptom checklist.
// Runs the set-containment join (which patients exhibit all symptoms
// of which disease?) with all four algorithms, and the division
// (who has every symptom on the checklist?) with all five, comparing
// their costs.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"radiv/internal/division"
	"radiv/internal/paperfigs"
	"radiv/internal/setjoin"
	"radiv/internal/stats"
	"radiv/internal/workload"
)

func main() { run(os.Stdout) }

func run(w io.Writer) {
	d := paperfigs.Fig1()
	fmt.Fprintf(w, "Fig. 1 database:\n%s\n", d)

	person := setjoin.Groups(d.Rel("Person"))
	disease := setjoin.Groups(d.Rel("Disease"))
	fmt.Fprintln(w, "set-containment join Person ⋈[⊇] Disease (all algorithms):")
	for _, alg := range setjoin.ContainmentAlgorithms() {
		res, st := alg.Join(person, disease)
		fmt.Fprintf(w, "  %-18s %d pairs, %d verifications: %v\n",
			alg.Name(), res.Len(), st.Verifications, res.Sorted())
	}

	fmt.Fprintln(w, "\ndivision Person ÷ Symptoms (all algorithms):")
	for _, alg := range division.All() {
		res, st := alg.Divide(d.Rel("Person"), d.Rel("Symptoms"), division.Containment)
		fmt.Fprintf(w, "  %-13s max memory %3d tuples: %v\n", alg.Name(), st.MaxMemoryTuples, res.Sorted())
	}

	// Scale the scenario up: a thousand patients, a growing checklist.
	fmt.Fprintln(w, "\nscaled-up checklist sweep (1000 patients):")
	t := stats.NewTable("|checklist|", "algorithm", "time", "qualifying")
	for _, sz := range []int{2, 8, 32} {
		wl := workload.Division{
			Groups: 1000, GroupSize: 10, Dist: workload.Uniform,
			DivisorSize: sz, MatchFraction: 0.2, Seed: 1,
		}
		r, s := wl.Generate()
		for _, alg := range []division.Algorithm{division.MergeSort{}, division.Hash{}, division.Aggregate{}} {
			start := time.Now()
			res, _ := alg.Divide(r, s, division.Containment)
			t.AddRow(sz, alg.Name(), time.Since(start).Round(time.Microsecond), res.Len())
		}
	}
	fmt.Fprint(w, t)
}
