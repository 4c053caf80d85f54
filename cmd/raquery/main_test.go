package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"radiv/internal/exec"
)

func writeDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.txt")
	data := "@R 2\nR 1,10\nR 1,20\nR 2,10\n@S 1\nS 10\nS 20\n@Visits 2\nVisits 1,2\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRA(t *testing.T) {
	db := writeDB(t)
	var out bytes.Buffer
	err := run([]string{"-db", db, "-ra",
		"diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))", "-trace"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1)") || !strings.Contains(out.String(), "max intermediate") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunOptimize(t *testing.T) {
	db := writeDB(t)
	division := "diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))"
	var plain, opt bytes.Buffer
	if err := run([]string{"-db", db, "-ra", division}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-db", db, "-ra", division, "-optimize", "-explain"}, &opt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine: xra", "division", "est rows"} {
		if !strings.Contains(opt.String(), want) {
			t.Errorf("optimized output missing %q:\n%s", want, opt.String())
		}
	}
	if !strings.HasSuffix(opt.String(), plain.String()) {
		t.Errorf("optimized result differs from plain:\nplain: %q\nopt:   %q", plain.String(), opt.String())
	}
}

func TestRunExplainUnoptimized(t *testing.T) {
	db := writeDB(t)
	var out bytes.Buffer
	if err := run([]string{"-db", db, "-ra", "project[1](R)", "-explain"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rules: off") {
		t.Errorf("explain without -optimize should say rules are off:\n%s", out.String())
	}
}

func TestRunSA(t *testing.T) {
	db := writeDB(t)
	var out bytes.Buffer
	if err := run([]string{"-db", db, "-sa", "semijoin[2=1](R, S)", "-trace"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1, 10)") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunGF(t *testing.T) {
	db := writeDB(t)
	var out bytes.Buffer
	if err := run([]string{"-db", db, "-gf", "exists y (R(x, y) & y = '10')", "-vars", "x"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1)") || !strings.Contains(out.String(), "(2)") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	db := writeDB(t)
	cases := [][]string{
		{},                                   // missing db
		{"-db", db},                          // no query
		{"-db", "/nonexistent"},              // bad path
		{"-db", db, "-ra", "join[9=9](R,S)"}, // bad expression
		{"-db", db, "-gf", "R(x"},            // bad formula
		{"-db", db, "-gf", "Nope(x)"},        // unknown relation
		{"-db", db, "-sa", "semijoin[2=1](R, S)", "-optimize"}, // planner is -ra only
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

const (
	divisionQuery = "diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))"
	joinDiffQuery = "diff(project[1,2](join[2=1](R, S)), project[1,2](join[1=1](R, Visits)))"
)

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

// TestRunExecutorMatchesOracle: every route onto the executor prints
// the bytes the materialized evaluators print under -oracle.
func TestRunExecutorMatchesOracle(t *testing.T) {
	db := writeDB(t)
	routes := [][]string{nil, {"-timeout", "1m"}, {"-max-resident", "100000"}, {"-optimize"}, {"-optimize", "-timeout", "1m"}}
	for _, q := range []string{divisionQuery, joinDiffQuery} {
		want := mustRun(t, "-db", db, "-ra", q, "-oracle")
		if want == "" {
			t.Fatalf("%s: empty oracle result makes the comparison vacuous", q)
		}
		for _, route := range routes {
			if got := mustRun(t, append([]string{"-db", db, "-ra", q}, route...)...); got != want {
				t.Errorf("%s %v: printed %q, -oracle prints %q", q, route, got, want)
			}
		}
	}
	const saQuery = "semijoin[2=1](R, S)"
	want := mustRun(t, "-db", db, "-sa", saQuery, "-oracle")
	for _, route := range [][]string{nil, {"-timeout", "1m"}, {"-max-resident", "100000"}} {
		if got := mustRun(t, append([]string{"-db", db, "-sa", saQuery}, route...)...); got != want {
			t.Errorf("-sa %v: printed %q, -oracle prints %q", route, got, want)
		}
	}
}

// TestRunTraceFormats: -trace prints the executor's trace — flows and
// the resident peak — on every executor route, and the materialized
// evaluators' cardinality trace only under -oracle.
func TestRunTraceFormats(t *testing.T) {
	db := writeDB(t)
	// The executor replays the stored S in place under the cartesian
	// join, so nothing flows out of it; the materialized evaluator
	// reports its cardinality.
	const flowLine, sizeLine = "       0  S\n", "       2  S\n"
	for _, route := range [][]string{nil, {"-timeout", "1m"}, {"-max-resident", "100000"}} {
		out := mustRun(t, append([]string{"-db", db, "-ra", divisionQuery, "-trace"}, route...)...)
		if !strings.Contains(out, flowLine) || !strings.Contains(out, "max intermediate: 4\nmax resident: 3\n") {
			t.Errorf("-ra %v: -trace is not the executor's trace:\n%s", route, out)
		}
	}
	// Optimized, the γ-division runs as one aggregate-division operator,
	// which holds S's two values and one counter per matched group.
	if out := mustRun(t, "-db", db, "-ra", divisionQuery, "-trace", "-optimize"); !strings.Contains(out, "max intermediate: 3\nmax resident: 4\n") {
		t.Errorf("-ra -optimize: -trace is not the executor's trace:\n%s", out)
	}
	for _, route := range [][]string{nil, {"-timeout", "1m"}} {
		out := mustRun(t, append([]string{"-db", db, "-sa", "semijoin[2=1](R, S)", "-trace"}, route...)...)
		if !strings.Contains(out, "max intermediate: 3\nmax resident: 2\n") {
			t.Errorf("-sa %v: -trace is not the executor's trace:\n%s", route, out)
		}
	}
	for _, q := range [][]string{{"-ra", divisionQuery}, {"-sa", "semijoin[2=1](R, S)"}} {
		out := mustRun(t, append([]string{"-db", db, "-trace", "-oracle"}, q...)...)
		if !strings.Contains(out, sizeLine) || !strings.Contains(out, "max intermediate: ") || strings.Contains(out, "max resident") {
			t.Errorf("%v -oracle: -trace is not the materialized trace:\n%s", q, out)
		}
	}
}

// TestRunOracleExcludesExecutorFlags: -oracle is the unbudgeted,
// unplanned evaluation; combining it with a budget or planner flag is
// a usage error, not a silently ignored flag.
func TestRunOracleExcludesExecutorFlags(t *testing.T) {
	db := writeDB(t)
	for _, flags := range [][]string{{"-timeout", "1m"}, {"-max-resident", "10"}, {"-optimize"}, {"-explain"}} {
		var out bytes.Buffer
		err := run(append([]string{"-db", db, "-ra", divisionQuery, "-oracle"}, flags...), &out)
		if err == nil || !strings.Contains(err.Error(), "-oracle") || out.Len() != 0 {
			t.Errorf("-oracle %v: error %v, output %q; want a usage error naming -oracle", flags, err, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-db", db, "-gf", "exists y (R(x, y))", "-oracle"}, &out); err == nil {
		t.Error("-gf -oracle should fail")
	}
}

// TestRunBudgetAbort: a tripped budget ends the run with the typed
// error (main exits 1 on it) and no partial result, on -ra and -sa.
func TestRunBudgetAbort(t *testing.T) {
	db := writeDB(t)
	for _, q := range [][]string{{"-ra", "join[2=1](R, S)"}, {"-ra", divisionQuery, "-optimize"}, {"-sa", "semijoin[2=1](R, S)"}} {
		var out bytes.Buffer
		err := run(append([]string{"-db", db, "-max-resident", "1"}, q...), &out)
		var budget *exec.BudgetError
		if !errors.As(err, &budget) || out.Len() != 0 {
			t.Errorf("%v: error %v, output %q; want an *exec.BudgetError and no output", q, err, out.String())
		}
	}
}
