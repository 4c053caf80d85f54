// Command radiv runs the paper-reproduction experiments and prints
// their tables. Each experiment id corresponds to a figure, example or
// claim of the paper; -list prints the index.
//
// Usage:
//
//	radiv -list
//	radiv -exp F4
//	radiv -all
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids")
	exp := flag.String("exp", "", "run one experiment by id")
	all := flag.Bool("all", false, "run every experiment")
	flag.IntVar(&workers, "workers", 0,
		"worker count for the parallel algorithm variants in P26/SJ1/SJ2 (0 = one per CPU)")
	flag.IntVar(&shards, "shards", 0,
		"shard count for the sharded-store experiment ST3 (0 = sweep 1, 2, 4)")
	flag.IntVar(&batchSize, "batch", 0,
		"batch row capacity for the sweeps in ST6 (0 = sweep 1, 64, 1024)")
	flag.Parse()

	switch {
	case *list:
		for _, e := range experimentsSorted() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
	case *all:
		for _, e := range experimentsSorted() {
			fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
			e.Run(os.Stdout)
			fmt.Println()
		}
	case *exp != "":
		for _, e := range experimentsSorted() {
			if e.ID == *exp {
				e.Run(os.Stdout)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(1)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func experimentsSorted() []experiment {
	es := experiments()
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	return es
}
