package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGeneratorsAreSeeded pins the generators' contract: the seed is
// the only input, and it changes the data but not the sizes.
func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		_, generate := w.input(0.02)
		a, again, b := generate(1), generate(1), generate(2)
		if !bytes.Equal(a.file, again.file) || !reflect.DeepEqual(a.expected, again.expected) {
			t.Errorf("%s: seed 1 generated two different datasets", w.name)
		}
		if bytes.Equal(a.file, b.file) {
			t.Errorf("%s: seeds 1 and 2 generated the same file", w.name)
		}
		if a.tuples != b.tuples || a.tuples != bytes.Count(a.file, []byte("\n"))-bytes.Count(a.file, []byte("@")) {
			t.Errorf("%s: tuples = %d and %d, file has %d lines", w.name, a.tuples, b.tuples, bytes.Count(a.file, []byte("\n")))
		}
	}
}

// TestSmoke builds the benchmark, runs every workload and both passes
// at -short sizes, and checks the output against BENCHMARK.json: every
// workload and metric it names is emitted exactly once, finite and
// with its unit, and nothing unnamed is emitted.
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}

	run := func(args ...string) []result {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("bench %v: %v\n%s", args, err, stderr.String())
		}
		var results []result
		for _, line := range strings.Split(string(out), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var r result
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
		return results
	}
	checkMetrics := func(what string, r result, defs []metricDef) {
		t.Helper()
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", what, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics emitted, %d declared", what, len(r.Metrics), len(defs))
		}
		for _, def := range defs {
			v, ok := r.Metrics[def.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not emitted", what, def.Name)
			case v.Unit != def.Unit:
				t.Errorf("%s: %s has unit %q, declared %q", what, def.Name, v.Unit, def.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %v", what, def.Name, v.Value)
			}
		}
	}

	seen := map[string]int{}
	for _, r := range run("-short") {
		if r.Trace == nil {
			t.Fatalf("a multi-result run printed a line without its trace flag: %+v", r)
		}
		what := r.Workload + "/trace" + string(rune('0'+*r.Trace))
		seen[what]++
		defs := bf.EndToEnd
		if *r.Trace == 1 {
			defs = bf.PerLayer
		}
		checkMetrics(what, r, defs)
	}
	for _, w := range bf.Workloads {
		for _, pass := range []string{"/trace0", "/trace1"} {
			if seen[w.Name+pass] != 1 {
				t.Errorf("%s%s emitted %d times", w.Name, pass, seen[w.Name+pass])
			}
		}
	}
	if len(seen) != 2*len(bf.Workloads) {
		t.Errorf("results emitted for %v, BENCHMARK.json names %d workloads", seen, len(bf.Workloads))
	}

	// The driver's form: one workload, one pass, and a last line with
	// exactly the contract's four keys.
	single := run("-short", "--workload", "direct-sharded", "--seed", "7", "--seconds", "0", "--trace", "0")
	if len(single) != 1 || single[0].Workload != "" || single[0].Trace != nil {
		t.Fatalf("single run printed %+v", single)
	}
	checkMetrics("direct-sharded single", single[0], bf.EndToEnd)
}
