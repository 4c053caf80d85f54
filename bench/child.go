package main

// `bench child`: the process that runs a workload's units of work, one
// at a time, and prints one line per unit. The end-to-end pass exec's
// it afresh for every set-up, for two reasons. A child's ru_maxrss
// starts at its parent's resident peak (Linux folds the address space
// a vfork child leaves at exec into the child's own high-water mark),
// so raquery must be spawned from a process far smaller than itself:
// this one holds nothing but the expected output. And direct-sharded
// must run the library on a heap no other workload has touched.
//
// It receives only files: db.txt and expected-<output>.txt. Protocol,
// on standard output:
//
//	ready                           after the warm-ups
//	<seconds> <rss MB> <verdict>    per measured unit; verdict is "ok" or what differed
//	rss <MB>                        direct-sharded only: this process's own peak

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory holding db.txt and expected-<output>.txt")
	k := fs.Int("k", 1, "workers = shards of a direct-sharded iteration")
	warmups := fs.Int("warmups", 0, "unmeasured units before \"ready\"")
	seconds := fs.Float64("seconds", 0, "length of the measured loop (0 = none)")
	minUnits := fs.Int("min", 0, "least number of measured units")
	if err := fs.Parse(args); err != nil {
		return err
	}
	expect := func(output string) (string, error) {
		text, err := os.ReadFile(filepath.Join(*dir, "expected-"+output+".txt"))
		return string(text), err
	}

	// With arguments after the flags the unit is one process: the
	// raquery command line they spell. Without, it is one
	// direct-sharded iteration in this process.
	var unit func() (wall, rssMB float64, err error)
	if command := fs.Args(); len(command) > 0 {
		want, err := expect("stdout")
		if err != nil {
			return err
		}
		unit = func() (float64, float64, error) { return checkedQuery(command[0], command[1:], want) }
	} else {
		expected := map[string]string{}
		for _, op := range directOps {
			text, err := expect(op)
			if err != nil {
				return err
			}
			expected[op] = text
		}
		file, err := os.ReadFile(filepath.Join(*dir, "db.txt"))
		if err != nil {
			return err
		}
		d, err := loadText(file)
		if err != nil {
			return err
		}
		unit = func() (float64, float64, error) {
			start := time.Now()
			results, _ := directIteration(d, *k, nil, 0)
			wall := time.Since(start).Seconds()
			return wall, 0, checkDirect(results, expected)
		}
		defer func() { fmt.Printf("rss %v\n", ownPeakRSSMB()) }()
	}

	for i := 0; i < *warmups; i++ {
		if _, _, err := unit(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	fmt.Println("ready")
	loop := config{seconds: *seconds, minQueries: *minUnits}
	for start, n := time.Now(), 0; loop.measureLoop(start, n); n++ {
		wall, rssMB, err := unit()
		verdict := "ok"
		if err != nil {
			verdict = strings.ReplaceAll(err.Error(), "\n", " ")
		}
		fmt.Printf("%.9f %v %s\n", wall, rssMB, verdict)
	}
	return nil
}

// ownPeakRSSMB reads this process's VmHWM. Unlike getrusage it does
// not include what the parent held when it spawned us.
func ownPeakRSSMB() float64 {
	status, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
