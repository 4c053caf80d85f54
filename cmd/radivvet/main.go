// Command radivvet is the engine's own vet: a multichecker that runs
// the radiv analyzers over Go packages and fails the build on any
// finding. It mechanically enforces the two contracts the engine's
// correctness rests on — caller-owned evaluator results and dictionary
// quiescence inside pool workers — plus the ra:/sa:/xra: panic-prefix
// convention.
//
// Usage:
//
//	radivvet [-list] [packages]
//
// Packages default to ./... relative to the current directory.
// Findings print as file:line:col: message [analyzer]; the exit
// status is 1 if anything was reported, 2 on a loading or internal
// error. A finding can be suppressed at the reported line (or the
// line above) with
//
//	//radivvet:ignore <analyzer>[,<analyzer>] <reason>
//
// where the reason is mandatory: an unexplained suppression is itself
// a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"radiv/internal/analysis"
	"radiv/internal/analysis/callerowned"
	"radiv/internal/analysis/loadpkg"
	"radiv/internal/analysis/panicprefix"
	"radiv/internal/analysis/quiescence"
)

var analyzers = []*analysis.Analyzer{
	callerowned.Analyzer,
	panicprefix.Analyzer,
	quiescence.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: radivvet [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader := loadpkg.New(wd)
	pkgs, err := loader.Targets(patterns...)
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "radivvet:", err)
	os.Exit(2)
}
