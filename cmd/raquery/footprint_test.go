package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// classicalDivision is π₁(R) − π₁(π₁(R)×S − R), the expression
// Proposition 26 proves quadratic in RA.
const classicalDivision = "diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))"

// TestQueryFootprint holds the bytes one query allocates, load
// included, on files shaped like the benchmark's three raquery
// workloads at a tenth to a quarter of their size: the classical
// division run as written under a governor, the same expression
// planned into the aggregate division (a load of integers), and the
// beer-drinker join planned into semijoins (a load of strings). On a
// machine where a fresh page costs microseconds, these bytes are run
// time. Each ceiling is the bytes measured when it was last set plus
// 10 %: 277 kB for div-asis (one dictionary per database), 1 479 and
// 1 093 kB for div-planned and lin-semijoin (results keep the query's
// dictionary and are sorted in place). A later change that allocates less lowers them; none
// raises them.
func TestQueryFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates more per query than the program does, so the ceilings do not apply")
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		file    []byte
		args    []string
		ceiling uint64 // bytes allocated per query
	}{
		{"div-asis", divisionFile(500, 100, 10, 0, 4, 500), []string{"-ra", classicalDivision, "-timeout", "10m"}, 305_000},
		{"div-planned", divisionFile(2500, 8, 750, 7, 6, 60), []string{"-ra", classicalDivision, "-optimize"}, 1_627_000},
		{"lin-semijoin", beerFile(3000, 1500, 2000, 150, 1000), []string{"-ra", sadBarVisitors, "-optimize"}, 1_203_000},
	} {
		path := filepath.Join(dir, tc.name+".txt")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-db", path}, tc.args...)
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := run(args, io.Discard); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d B allocated per query (%d B of input)", tc.name, got, len(tc.file))
		if got > tc.ceiling {
			t.Errorf("%s: %d B allocated per query, want at most %d", tc.name, got, tc.ceiling)
		}
	}
}

// sadBarVisitors asks for the drinkers who visit a bar that serves no
// liked beer: joins that Theorem 18's rewrite turns into semijoins.
const sadBarVisitors = "project[1](join[2=1](Visits, diff(project[1](Serves), project[1](join[2=1](Serves, project[2](Likes))))))"

// divisionFile writes R(A,B) and S(B) for R ÷ S: groups 0…groups-1,
// one in every groups/matching holding all of S and the others
// nearMiss elements of it, and every group extra distinct values from
// [0, domain), which S (the values 1 000 000 + i) never holds.
func divisionFile(groups, divisor, matching, nearMiss, extra, domain int) []byte {
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	b.WriteString("@R 2\n")
	for g := range groups {
		fromS := nearMiss
		if g%(groups/matching) == 0 {
			fromS = divisor
		}
		off := rng.Intn(divisor)
		for i := range fromS {
			fmt.Fprintf(&b, "R %d,%d\n", g, 1_000_000+(off+i)%divisor)
		}
		for _, v := range rng.Perm(domain)[:extra] {
			fmt.Fprintf(&b, "R %d,%d\n", g, v)
		}
	}
	b.WriteString("@S 1\n")
	for i := range divisor {
		fmt.Fprintf(&b, "S %d\n", 1_000_000+i)
	}
	return b.Bytes()
}

// beerFile writes Likes(drinker, beer), Serves(bar, beer) and
// Visits(drinker, bar) over strings, two tuples per bar in each: sad
// bars serve only beers from the unliked upper part of the beer
// range, every other bar at least one liked beer.
func beerFile(drinkers, bars, beers, sadBars, liked int) []byte {
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	b.WriteString("@Likes 2\n")
	for i := range 2 * bars {
		fmt.Fprintf(&b, "Likes drinker-%06d,beer-%06d\n", rng.Intn(drinkers), i%liked)
	}
	b.WriteString("@Serves 2\n")
	for bar := range bars {
		first, second := rng.Intn(liked), rng.Intn(beers)
		if bar%(bars/sadBars) == 0 {
			first, second = liked+rng.Intn(beers-liked), liked+rng.Intn(beers-liked)
		}
		fmt.Fprintf(&b, "Serves bar-%06d,beer-%06d\nServes bar-%06d,beer-%06d\n", bar, first, bar, second)
	}
	b.WriteString("@Visits 2\n")
	for range 2 * bars {
		fmt.Fprintf(&b, "Visits drinker-%06d,bar-%06d\n", rng.Intn(drinkers), rng.Intn(bars))
	}
	return b.Bytes()
}
