// Command bench is radiv's benchmark: raquery-shaped end-to-end runs,
// a per-layer split, four named workloads. BENCHMARK.json at the
// repository root names every workload and metric; bench/README.md
// explains them. Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload div-asis --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1          # every workload, both passes
//	bash bench/run.sh -selfcheck       # A/A gate: two sets, compared to the bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric declaration of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is BENCHMARK.json: the one place that names the
// workloads, the metrics, their units and their bounds.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line. Workload and Trace are added
// only when one invocation prints several results.
type result struct {
	Workload  string           `json:"workload,omitempty"`
	Trace     *int             `json:"trace,omitempty"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// named attaches BENCHMARK.json's units to measured values, and
// refuses a set of names that differs from the declared one.
func named(defs []metricDef, measured map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, def := range defs {
		v, ok := measured[def.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", def.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured %v", def.Name, v)
		}
		out[def.Name] = value{v, def.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but BENCHMARK.json does not declare it", name)
		}
	}
	return out, nil
}

// environment is recorded with every result.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	MinQueries int     `json:"min_queries"`
	TraceK     int     `json:"trace_k"`
	ReferenceK int     `json:"reference_k"`
	Workers    int     `json:"workers_and_shards"`
	BuildS     float64 `json:"build_s"`
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a repository
	}
	return strings.TrimSpace(string(out))
}

// report is what bench/out/result-<workload>-trace<n>.json holds: the
// contract line plus everything needed to read it later.
type report struct {
	Workload string         `json:"workload"`
	Why      string         `json:"why"`
	Params   any            `json:"params"`
	Sizes    map[string]int `json:"sizes,omitempty"`
	Env      environment    `json:"env"`
	Result   result         `json:"result"`
	// Samples are the end-to-end pass's raw per-query wall times, in
	// run order, so that a percentile can be recomputed later.
	Samples []float64 `json:"samples_s,omitempty"`
}

// bench is one invocation's state.
type bench struct {
	cfg config
	bf  *benchmarkFile
	env environment
	out io.Writer
}

// runOne runs one pass of one workload and writes its report file.
func (b *bench) runOne(w *workload, trace int) (result, error) {
	var (
		o       outcome
		defs    []metricDef
		sizes   map[string]int
		samples []float64
	)
	if trace == 1 {
		s, err := tracedPass(&b.cfg, w)
		if err != nil {
			return result{}, err
		}
		o, defs = s.outcome, b.bf.PerLayer
	} else {
		r, ds, err := runE2E(&b.cfg, w)
		if err != nil {
			return result{}, err
		}
		if err := crossCheck(w, ds); err != nil {
			return result{}, err
		}
		o, defs = r.outcome(), b.bf.EndToEnd
		sizes, samples = ds.sizes, r.walls
	}
	if o.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d outputs wrong; first: %v\n", w.name, o.failed, o.attempted, o.firstErr)
	}
	metrics, err := named(defs, o.metrics)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}

	params, _ := w.input(b.cfg.scale)
	data, err := json.MarshalIndent(report{w.name, w.why, params, sizes, b.env, res, samples}, "", "  ")
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(b.cfg.outDir, fmt.Sprintf("result-%s-trace%d.json", w.name, trace))
	return res, os.WriteFile(path, data, 0o644)
}

// printTable prints every metric by name with its unit, for people.
func (b *bench) printTable(w *workload, trace int, res result) {
	fmt.Fprintf(b.out, "== %s, trace %d: %d attempted, %d failed ==\n", w.name, trace, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b.out, "  %-34s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}

// buildRaquery builds cmd/raquery from the checkout's source and
// returns its path and the build time.
func buildRaquery(dir string) (string, float64, error) {
	path, err := filepath.Abs(filepath.Join(dir, "raquery"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", path, "./cmd/raquery")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/raquery: %w", err)
	}
	return path, time.Since(start).Seconds(), nil
}

func benchMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the input generators")
	seconds := fs.Float64("seconds", 0, "length of the measured loop (default: BENCHMARK.json's run_seconds)")
	traceFlag := fs.String("trace", "both", "0: end-to-end pass, 1: traced per-layer pass, both")
	short := fs.Bool("short", false, "smoke-test sizes: tiny inputs, a handful of queries")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end pass twice and fail if a metric moves by more than its bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	run := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		run = []*workload{w}
	}
	var passes []int
	switch *traceFlag {
	case "0":
		passes = []int{0}
	case "1":
		passes = []int{1}
	case "both":
		passes = []int{0, 1}
	default:
		return fmt.Errorf("-trace takes 0, 1 or both, not %q", *traceFlag)
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	b := &bench{bf: bf, out: out}
	b.cfg = config{
		seed: *seed, seconds: *seconds, scale: 1,
		minQueries: 100, warmups: 5, setups: 3, traceK: 20, referenceK: 5,
		k: min(runtime.NumCPU(), 4), outDir: filepath.Join("bench", "out"), self: self,
	}
	if *short {
		b.cfg.seconds, b.cfg.scale = 0, 0.02
		b.cfg.minQueries, b.cfg.warmups, b.cfg.setups, b.cfg.traceK, b.cfg.referenceK = 3, 1, 1, 2, 1
	}
	if err := os.MkdirAll(b.cfg.outDir, 0o755); err != nil {
		return err
	}
	var buildS float64
	b.cfg.raquery, buildS, err = buildRaquery(b.cfg.outDir)
	if err != nil {
		return err
	}
	b.env = environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: gitCommit(),
		Seed: b.cfg.seed, Seconds: b.cfg.seconds, MinQueries: b.cfg.minQueries,
		TraceK: b.cfg.traceK, ReferenceK: b.cfg.referenceK, Workers: b.cfg.k, BuildS: buildS,
	}
	stopSpinners, err := startSpinners(self)
	if err != nil {
		return err
	}
	defer stopSpinners()
	if *selfcheck {
		return b.selfcheck(run)
	}

	single := len(run) == 1 && len(passes) == 1
	correct := true
	for _, w := range run {
		for _, trace := range passes {
			res, err := b.runOne(w, trace)
			if err != nil {
				return err
			}
			correct = correct && res.Correct
			b.printTable(w, trace, res)
			if !single {
				res.Workload, res.Trace = w.name, &trace
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", line)
		}
	}
	if !correct {
		return fmt.Errorf("wrong outputs; see above")
	}
	return nil
}

// selfcheck is the A/A gate: two end-to-end sets on the same build
// must agree within each metric's own bound.
func (b *bench) selfcheck(run []*workload) error {
	var moved []string
	for _, w := range run {
		var sets [2]result
		for i := range sets {
			var err error
			if sets[i], err = b.runOne(w, 0); err != nil {
				return err
			}
			if !sets[i].Correct {
				return fmt.Errorf("%s: wrong outputs in set %d", w.name, i+1)
			}
		}
		for _, def := range b.bf.EndToEnd {
			first, second := sets[0].Metrics[def.Name].Value, sets[1].Metrics[def.Name].Value
			diff := math.Abs(second-first) / first
			verdict := "ok"
			if diff > def.Bound {
				verdict = "MOVED"
				moved = append(moved, w.name+"/"+def.Name)
			}
			fmt.Fprintf(b.out, "%-15s %-13s %14.6g %14.6g %-9s %+7.2f%% (bound %.0f%%) %s\n",
				w.name, def.Name, first, second, def.Unit, 100*(second-first)/first, 100*def.Bound, verdict)
		}
	}
	if len(moved) > 0 {
		return fmt.Errorf("selfcheck: same build, different numbers: %s", strings.Join(moved, ", "))
	}
	return nil
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "spin" {
		spinMain()
	}
	if len(os.Args) > 1 && os.Args[1] == "child" {
		err = childMain(os.Args[2:])
	} else {
		err = benchMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
