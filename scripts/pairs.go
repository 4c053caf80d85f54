//go:build ignore

// Command pairs compares a revision's cmd/raquery with the checkout's
// in alternating fresh-process pairs, the way ROADMAP's "How perf is
// claimed" asks a perf PR to:
//
//	go run scripts/pairs.go -against REV -n 60 -- <raquery arguments>
//
// It builds REV's cmd/raquery from `git archive REV` in a temporary
// directory, and the checkout's from the working tree, both with
// GOPROXY=off and GOFLAGS= as bench/run.sh sets them, and with
// -trimpath -buildvcs=false, so that the same source gives the same
// binary in either directory: a binary that embeds its build path or
// its VCS state differs in size and so in ru_maxrss. Then it runs the
// two binaries on the same arguments n times each, turn by turn,
// alternating which of a pair goes first, and stops with exit status 1
// at the first pair whose stdout md5 differs (or at a run that fails).
// For wall, user and sys time, minor page faults and ru_maxrss it
// prints both sides' medians, the median of the per-pair new/old
// ratios, a bootstrap 95 % interval of that median over pairs, and how
// many pairs the checkout won (k/N); a metric whose interval contains 1
// is marked "unresolved". A ratio is taken only over the pairs where
// both sides read above 0: sys time often reads 0 on a short query. A/A
// (-against HEAD on a clean tree) must read unresolved on wall time.
//
// The three raquery workloads of BENCHMARK.json, after
// `bash bench/run.sh --workload W --seconds 1` (add --seed S for
// another seed) has written bench/out/W/db.txt:
//
//	div-asis:     -db bench/out/div-asis/db.txt -timeout 10m \
//	              -ra 'diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))'
//	div-planned:  -db bench/out/div-planned/db.txt -optimize \
//	              -ra 'diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))'
//	lin-semijoin: -db bench/out/lin-semijoin/db.txt -optimize \
//	              -ra 'project[1](join[2=1](Visits, diff(project[1](Serves), project[1](join[2=1](Serves, project[2](Likes))))))'
package main

import (
	"bytes"
	"crypto/md5"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// sample is one run's readings, in the order of metrics.
type sample [5]float64

var metrics = []struct{ name, unit string }{
	{"wall", "ms"}, {"user", "ms"}, {"sys", "ms"}, {"minflt", "faults"}, {"maxrss", "MB"},
}

func main() {
	against := flag.String("against", "HEAD", "git revision to build the old raquery from")
	n := flag.Int("n", 60, "pairs to run")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/pairs.go [-against REV] [-n N] -- <raquery arguments>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*against, *n, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(rev string, n int, args []string) error {
	tmp, err := os.MkdirTemp("", "pairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	src := filepath.Join(tmp, "src")
	if err := os.Mkdir(src, 0o755); err != nil {
		return err
	}
	archive := exec.Command("sh", "-c", `git archive "$0" | tar -x -C "$1"`, rev, src)
	if out, err := archive.CombinedOutput(); err != nil {
		return fmt.Errorf("git archive %s: %v\n%s", rev, err, out)
	}
	old, cur := filepath.Join(tmp, "old"), filepath.Join(tmp, "new")
	if err := build(src, old); err != nil {
		return err
	}
	if err := build(".", cur); err != nil {
		return err
	}
	// One run of each warms the file cache and checks the outputs
	// before any pair is timed.
	_, want, err := measure(old, args)
	if err != nil {
		return err
	}
	if _, sum, err := measure(cur, args); err != nil || sum != want {
		return fmt.Errorf("the checkout's first run: stdout md5 %x, %s's %x; error %v", sum, rev, want, err)
	}
	olds, news := make([]sample, n), make([]sample, n)
	for i := range n {
		order := []string{old, cur}
		if i%2 == 1 {
			order = []string{cur, old}
		}
		for _, bin := range order {
			s, sum, err := measure(bin, args)
			if err != nil {
				return err
			}
			if bin == old {
				olds[i] = s
			} else {
				news[i] = s
			}
			if sum != want {
				return fmt.Errorf("pair %d: stdout md5 of %s is %x, want %x", i+1, bin, sum, want)
			}
		}
	}
	fmt.Printf("%d pairs, old = %s, new = the checkout; raquery %q; stdout md5 %x on every run\n", n, rev, args, want)
	fmt.Printf("%-8s %-7s %12s %12s %8s  %-18s %7s\n", "metric", "unit", "old median", "new median", "new/old", "95 % interval", "new <")
	for m, mt := range metrics {
		o, w := column(olds, m), column(news, m)
		var ratios []float64
		wins := 0
		for i := range o {
			if o[i] > 0 && w[i] > 0 {
				ratios = append(ratios, w[i]/o[i])
			}
			if w[i] < o[i] {
				wins++
			}
		}
		line := fmt.Sprintf("%-8s %-7s %12.3f %12.3f", mt.name, mt.unit, median(o), median(w))
		if len(ratios) == 0 {
			fmt.Printf("%s %8s  %-18s %4d/%d\n", line, "-", "(a side reads 0)", wins, n)
			continue
		}
		lo, hi := bootstrap(ratios)
		verdict := ""
		if lo <= 1 && 1 <= hi {
			verdict = "  unresolved"
		}
		fmt.Printf("%s %8.3f  [%.3f, %.3f]%4d/%d%s\n", line, median(ratios), lo, hi, wins, n, verdict)
	}
	return nil
}

// build compiles dir's cmd/raquery into out, with no module download.
func build(dir, out string) error {
	cmd := exec.Command("go", "build", "-trimpath", "-buildvcs=false", "-o", out, "./cmd/raquery")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building %s/cmd/raquery: %v\n%s", dir, err, b)
	}
	return nil
}

// measure runs bin once on args and returns its readings and the md5
// of its stdout. A run that exits nonzero is an error.
func measure(bin string, args []string) (sample, [md5.Size]byte, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return sample{}, [md5.Size]byte{}, fmt.Errorf("%s: %v\n%s", bin, err, stderr.Bytes())
	}
	var s sample
	s[0] = float64(wall.Nanoseconds()) / 1e6
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s[1] = float64(ru.Utime.Nano()) / 1e6
		s[2] = float64(ru.Stime.Nano()) / 1e6
		s[3] = float64(ru.Minflt)
		s[4] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, md5.Sum(stdout.Bytes()), nil
}

func column(ss []sample, m int) []float64 {
	c := make([]float64, len(ss))
	for i, s := range ss {
		c[i] = s[m]
	}
	return c
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// bootstrap returns a 95 % percentile interval of the median of xs,
// from 2 000 resamples of the pairs with replacement under a fixed
// seed, so a report repeats.
func bootstrap(xs []float64) (lo, hi float64) {
	const resamples = 2000
	rng := rand.New(rand.NewSource(1))
	meds := make([]float64, resamples)
	re := make([]float64, len(xs))
	for b := range meds {
		for i := range re {
			re[i] = xs[rng.Intn(len(xs))]
		}
		meds[b] = median(re)
	}
	slices.Sort(meds)
	return meds[resamples*25/1000], meds[resamples*975/1000-1]
}
