// Command raquery evaluates relational-algebra, semijoin-algebra and
// guarded-fragment queries over databases in the library's text format.
//
// Usage:
//
//	raquery -db data.txt -ra  'diff(project[1](R), ...)'
//	raquery -db data.txt -sa  'semijoin[2=1](Visits, Serves)'
//	raquery -db data.txt -gf  'exists y (Visits(x, y) & x = y)' -vars x
//	raquery -db data.txt -ra '...' -trace        # print intermediate sizes
//	raquery -db data.txt -ra '...' -optimize     # run the rewrite planner
//	raquery -db data.txt -ra '...' -explain      # print plan + cost estimates
//	raquery -db data.txt -ra '...' -timeout 5s   # governed: wall-clock budget
//	raquery -db data.txt -ra '...' -max-resident 100000  # tuple budget
//	raquery -db data.txt -ra '...' -oracle       # the paper's materialized semantics
//
// One executor runs every -ra and -sa query: the expression becomes
// internal/plan's IR (rewritten only under -optimize, which applies to
// -ra) and plan builds and runs its batch cursor tree. -timeout and
// -max-resident put the same executor under a governor: exceeding
// either budget aborts the query cleanly (typed error on stderr, exit
// 1) instead of running away. -trace prints what flowed out of each
// operator and the peak tuple count held in operator state.
//
// -oracle evaluates the expression as written with the materialized
// evaluators instead — every intermediate result built in full, which
// is the semantics the paper's size measures are defined on, and the
// reference the executor is tested against. Its -trace reports result
// cardinalities, not flows. It takes no budget and no planner flag.
//
// The database format is line oriented: "@R 2" declares relation R of
// arity 2 and "R 1,2" adds the tuple (1,2); see internal/rel.ReadText.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"

	"radiv/internal/exec"
	"radiv/internal/gf"
	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "raquery:", err)
		os.Exit(1)
	}
}

// run parses the flags and executes one query; separated from main for
// testability.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("raquery", flag.ContinueOnError)
	dbPath := fs.String("db", "", "database file (text format)")
	raSrc := fs.String("ra", "", "relational algebra expression")
	saSrc := fs.String("sa", "", "semijoin algebra expression")
	gfSrc := fs.String("gf", "", "guarded fragment formula")
	vars := fs.String("vars", "", "comma-separated output variables for -gf")
	consts := fs.String("consts", "", "comma-separated extra constants for -gf answers")
	trace := fs.Bool("trace", false, "print intermediate result sizes")
	optimize := fs.Bool("optimize", false, "run the rewrite planner over the -ra expression")
	explain := fs.Bool("explain", false, "print the compiled -ra plan with cost estimates")
	timeout := fs.Duration("timeout", 0, "abort the query after this wall-clock duration (0 = none)")
	maxResident := fs.Int("max-resident", 0, "abort the query past this resident-tuple budget (0 = none)")
	oracle := fs.Bool("oracle", false, "evaluate -ra/-sa with the materialized evaluators (the paper's semantics) instead of the executor")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dbPath == "" {
		return fmt.Errorf("missing -db")
	}
	f, err := os.Open(*dbPath)
	if err != nil {
		return err
	}
	// A bulk load keeps most of what it allocates, so a collection
	// during it frees little, while its workers compete with the loader
	// for the CPUs and make run time and peak memory vary from one run
	// to the next. Collection is back on before the query runs; its
	// first cycle then takes the loaded database as the baseline.
	gc := debug.SetGCPercent(-1)
	d, err := rel.ReadText(f)
	debug.SetGCPercent(gc)
	f.Close()
	if err != nil {
		return err
	}

	if (*optimize || *explain) && *raSrc == "" {
		return fmt.Errorf("-optimize and -explain apply to -ra queries only")
	}

	// Budgets put the executor under a governor: a timeout cancels the
	// context mid-flight, a resident cap aborts on budget.
	governed := *timeout > 0 || *maxResident > 0
	if *oracle && (governed || *optimize || *explain) {
		return fmt.Errorf("-oracle evaluates the expression as written, unbudgeted: it excludes -optimize, -explain, -timeout and -max-resident")
	}
	lim := exec.Limits{MaxResident: *maxResident}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch {
	case *raSrc != "" || *saSrc != "":
		var root *plan.Node
		if *raSrc != "" {
			e, err := parser.ParseRA(*raSrc, d.Schema())
			if err != nil {
				return err
			}
			if *oracle {
				res, tr := ra.EvalTraced(e, d)
				if *trace {
					fmt.Fprint(out, tr)
				}
				fmt.Fprint(out, res)
				return nil
			}
			root = plan.FromRA(e)
		} else {
			e, err := parser.ParseSA(*saSrc, d.Schema())
			if err != nil {
				return err
			}
			if *oracle {
				res, tr := sa.EvalTraced(e, d)
				if *trace {
					for _, s := range tr.Steps {
						fmt.Fprintf(out, "%8d  %s\n", s.Size, s.Expr)
					}
					fmt.Fprintf(out, "max intermediate: %d\n", tr.MaxIntermediate)
				}
				fmt.Fprint(out, res)
				return nil
			}
			root = plan.FromSA(e)
		}
		p := plan.CompileIR(root, d, plan.Options{Optimize: *optimize, Limits: lim})
		if *explain {
			fmt.Fprint(out, p.Explain())
		}
		var res *rel.Relation
		var tr *plan.Trace
		if governed {
			if res, tr, err = p.ExecuteTracedContext(ctx); err != nil {
				return err
			}
		} else {
			res, tr = p.ExecuteTraced()
		}
		if *trace {
			for _, s := range tr.Steps {
				fmt.Fprintf(out, "%8d  %s\n", s.Size, s.Label)
			}
			fmt.Fprintf(out, "max intermediate: %d\nmax resident: %d\n", tr.MaxIntermediate, tr.MaxResident)
		}
		fmt.Fprint(out, res)
	case *gfSrc != "":
		if governed || *oracle {
			return fmt.Errorf("-timeout, -max-resident and -oracle apply to -ra and -sa queries only")
		}
		formula, err := parser.ParseGF(*gfSrc)
		if err != nil {
			return err
		}
		if err := gf.Validate(formula, d.Schema()); err != nil {
			return err
		}
		var vlist []gf.Var
		if *vars != "" {
			for _, v := range strings.Split(*vars, ",") {
				vlist = append(vlist, gf.Var(strings.TrimSpace(v)))
			}
		} else {
			vlist = formula.FreeVars()
		}
		var cs []rel.Value
		if *consts != "" {
			for _, c := range strings.Split(*consts, ",") {
				cs = append(cs, rel.ParseValue(strings.TrimSpace(c)))
			}
		}
		c := gf.Constants(formula).Union(rel.Consts(cs...))
		fmt.Fprint(out, gf.Answers(formula, d, c, vlist))
	default:
		return fmt.Errorf("provide one of -ra, -sa, -gf")
	}
	return nil
}
