package main

// The end-to-end pass: a closed loop with one client. One query is in
// flight at a time and the next starts when the previous has exited.
// The raquery workloads spawn the built cmd/raquery per query, so
// process start and runtime initialisation are part of every sample,
// as they are for a user. direct-sharded runs its iterations in one
// process. Both happen in a freshly exec'd `bench child` (child.go).

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config holds what a run is sized by; -short shrinks every field.
type config struct {
	seed    int64
	seconds float64 // how long the measured loop runs
	scale   float64 // multiplies every workload's group counts
	// minQueries is the least number of measured queries, whatever
	// -seconds says: percentiles need the samples.
	minQueries int
	warmups    int // unmeasured queries at the end of each set-up
	setups     int // set-ups per run; setup_s is their median
	// traceK and referenceK are the in-process repetitions of the
	// traced pass: for the workload's own layers, and for layers it
	// does not exercise (measured on the workload that owns them).
	traceK, referenceK int
	k                  int    // workers = shards of direct-sharded
	outDir             string // bench/out
	raquery            string // the built cmd/raquery
	self               string // this binary, for the direct-sharded child
}

// e2e is what the end-to-end pass of one workload measured.
type e2e struct {
	walls    []float64 // seconds per measured query
	rssMB    []float64 // ru_maxrss per query process
	setups   []float64 // seconds per set-up
	failed   int
	firstErr error
	tuples   int // input tuples per query
}

func (r *e2e) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *e2e) outcome() outcome {
	return outcome{
		metrics: map[string]float64{
			"query_p50_s":  median(r.walls),
			"tuples_per_s": float64(len(r.walls)*r.tuples) / sum(r.walls),
			"peak_rss_mb":  median(r.rssMB),
			"setup_s":      median(r.setups),
		},
		attempted: len(r.walls), failed: r.failed, firstErr: r.firstErr,
	}
}

// writeInputs generates the workload's dataset and writes its files:
// db.txt and the expected outputs the child checks against.
func writeInputs(cfg *config, w *workload) (ds dataset, dir string, err error) {
	_, generate := w.input(cfg.scale)
	ds = generate(cfg.seed)
	dir = filepath.Join(cfg.outDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ds, dir, err
	}
	if err := os.WriteFile(filepath.Join(dir, "db.txt"), ds.file, 0o644); err != nil {
		return ds, dir, err
	}
	for output, text := range ds.expected {
		if err := os.WriteFile(filepath.Join(dir, "expected-"+output+".txt"), []byte(text), 0o644); err != nil {
			return ds, dir, err
		}
	}
	return ds, dir, nil
}

// runQuery spawns one raquery and returns its wall time (spawn →
// stdout drained → exit), peak RSS and standard output.
func runQuery(raquery string, args []string) (wall, rssMB float64, stdout []byte, err error) {
	cmd := exec.Command(raquery, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	start := time.Now()
	err = cmd.Run()
	wall = time.Since(start).Seconds()
	if err != nil {
		return wall, 0, nil, fmt.Errorf("raquery: %v: %s", err, strings.TrimSpace(errOut.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return wall, rssMB, out.Bytes(), nil
}

// checkedQuery runs one query and compares its output with the
// expectation.
func checkedQuery(raquery string, args []string, expected string) (wall, rssMB float64, err error) {
	wall, rssMB, stdout, err := runQuery(raquery, args)
	if err == nil && string(stdout) != expected {
		err = fmt.Errorf("raquery printed %d bytes that differ from the %d expected", len(stdout), len(expected))
	}
	return wall, rssMB, err
}

// measureLoop reports whether the measured loop should go on.
func (cfg *config) measureLoop(start time.Time, done int) bool {
	elapsed := time.Since(start).Seconds()
	if done < cfg.minQueries {
		// A box too slow for minQueries within the contract's 180 s
		// reports what it has; the JSON still carries attempted.
		return elapsed < 120
	}
	return elapsed < cfg.seconds
}

// runE2E is the end-to-end pass of one workload. Each set-up writes
// the inputs and starts a child that runs the warm-ups; the last
// child goes on to the measured loop.
func runE2E(cfg *config, w *workload) (*e2e, dataset, error) {
	r := &e2e{}
	var ds dataset
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		var dir string
		var err error
		ds, dir, err = writeInputs(cfg, w)
		if err != nil {
			return nil, ds, err
		}
		child := exec.Command(cfg.self, "child", "-dir", dir, "-warmups", strconv.Itoa(cfg.warmups))
		if i == cfg.setups-1 {
			child.Args = append(child.Args, "-seconds", fmt.Sprint(cfg.seconds), "-min", strconv.Itoa(cfg.minQueries))
		}
		if w.direct() {
			child.Args = append(child.Args, "-k", strconv.Itoa(cfg.k))
		} else {
			child.Args = append(append(child.Args, cfg.raquery), w.raqueryArgs(filepath.Join(dir, "db.txt"))...)
		}
		child.Stderr = os.Stderr
		pipe, err := child.StdoutPipe()
		if err != nil {
			return nil, ds, err
		}
		if err := child.Start(); err != nil {
			return nil, ds, err
		}
		ready := false
		lines := bufio.NewScanner(pipe)
		for lines.Scan() {
			if line := lines.Text(); line == "ready" {
				ready = true
				r.setups = append(r.setups, time.Since(start).Seconds())
			} else if err := r.parseLine(line); err != nil {
				r.fail(err)
			}
		}
		if err := child.Wait(); err != nil {
			return nil, ds, fmt.Errorf("%s child: %w", w.name, err)
		}
		if !ready {
			return nil, ds, fmt.Errorf("%s child exited before its warm-ups ended", w.name)
		}
	}
	r.tuples = ds.tuples
	if w.direct() {
		return r, ds, nil
	}
	return r, ds, checkEngine(cfg, w, w.raqueryArgs(filepath.Join(cfg.outDir, w.name, "db.txt")))
}

// parseLine takes in one line of the child's protocol (child.go).
func (r *e2e) parseLine(line string) error {
	fields := strings.SplitN(line, " ", 3)
	if len(fields) == 2 && fields[0] == "rss" {
		rss, err := strconv.ParseFloat(fields[1], 64)
		// One process ran every iteration, so it has one peak.
		r.rssMB = []float64{rss}
		return err
	}
	if len(fields) != 3 {
		return fmt.Errorf("child printed %q", line)
	}
	wall, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return fmt.Errorf("child printed %q", line)
	}
	rss, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return fmt.Errorf("child printed %q", line)
	}
	r.walls, r.rssMB = append(r.walls, wall), append(r.rssMB, rss)
	if fields[2] != "ok" {
		return fmt.Errorf("measured unit %d: %s", len(r.walls), fields[2])
	}
	return nil
}

// checkEngine asks raquery -explain which executor the plan bound to.
func checkEngine(cfg *config, w *workload, args []string) error {
	_, _, stdout, err := runQuery(cfg.raquery, append(args, "-explain"))
	if err != nil {
		return err
	}
	if want := "engine: " + w.engine; !bytes.Contains(stdout, []byte(want)) {
		head, _, _ := bytes.Cut(stdout, []byte("\n"))
		return fmt.Errorf("%s: raquery -explain does not say %q (first line: %s)", w.name, want, head)
	}
	return nil
}
