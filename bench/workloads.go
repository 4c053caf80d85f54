package main

// The four workloads. Sizes were tuned on the reference box (2 cores,
// go1.24) so that one query takes roughly 0.1–0.2 s and a run of
// BENCHMARK.json's run_seconds holds well over 100 of them; the
// reasons are repeated in BENCHMARK.json and bench/README.md.

// classicalDivision is π₁(R) − π₁(π₁(R)×S − R), the expression
// Proposition 26 proves quadratic in RA.
const classicalDivision = "diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))"

// sadBarVisitors asks for the drinkers who visit a bar that serves no
// liked beer. It is written with joins, but it is structurally linear:
// Theorem 18's rewrite turns every join into a semijoin.
const sadBarVisitors = "project[1](join[2=1](Visits, diff(project[1](Serves), project[1](join[2=1](Serves, project[2](Likes))))))"

type workload struct {
	name string
	why  string
	// query is the -ra expression of a raquery workload; empty for
	// direct-sharded, which calls the library in a child process.
	query string
	// optimize adds -optimize; governed adds -timeout 10m, which
	// routes raquery onto the streamed, governed executor.
	optimize, governed bool
	// engine is the executor the plan must bind to, checked through
	// raquery -explain once per run.
	engine string
	// input returns the workload's parameters at the given scale and
	// their generator.
	input func(scale float64) (params any, generate func(seed int64) dataset)
}

func (w *workload) direct() bool { return w.query == "" }

// raqueryArgs is the command line of one query, after the binary.
func (w *workload) raqueryArgs(db string) []string {
	args := []string{"-db", db, "-ra", w.query}
	if w.optimize {
		args = append(args, "-optimize")
	}
	if w.governed {
		args = append(args, "-timeout", "10m")
	}
	return args
}

type spec[T any] interface {
	scaled(f float64) T
	generate(seed int64) dataset
}

func input[T spec[T]](sp T) func(float64) (any, func(int64) dataset) {
	return func(f float64) (any, func(int64) dataset) {
		s := sp.scaled(f)
		return s, s.generate
	}
}

// plannedDivision is the R/S instance of div-planned and
// direct-sharded: many small groups against a small divisor, near
// misses everywhere, 30 % of the groups matching.
var plannedDivision = divisionSpec{Groups: 10000, DivisorSize: 8, Matching: 3000, NearMiss: 7, Extra: 6, Domain: 60}

var workloads = []*workload{
	{
		name: "div-asis",
		why: "classical division run as written (Prop. 26): the ra streaming executor under the governor does " +
			"the quadratic work, load is a small share; dictionary fits L2",
		query: classicalDivision, governed: true, engine: "ra",
		input: input(divisionSpec{Groups: 2000, DivisorSize: 300, Matching: 40, NearMiss: 0, Extra: 4, Domain: 2000}),
	},
	{
		name: "div-planned",
		why: "same expression with -optimize: the division-to-gamma rewrite makes execution linear on xra, so " +
			"rel load/intern dominates; counter-workload to div-asis",
		query: classicalDivision, optimize: true, engine: "xra",
		input: input(plannedDivision),
	},
	{
		name: "lin-semijoin",
		why: "Theorem 18: a join query linearized onto sa over string values; interning and a dictionary " +
			"larger than L2, unlike the integer division workloads",
		query: sadBarVisitors, optimize: true, engine: "sa",
		input: input(beerSpec{Drinkers: 30000, Bars: 15000, Beers: 20000, PerBar: 2, SadBars: 1500, LikedBeers: 10000}),
	},
	{
		name: "direct-sharded",
		why: "library level: shard.FromStore, Publish, then sharded Divide, ContainmentJoin and EqualityJoin; no " +
			"text load, parser or planner; the only workload parallelism can move",
		input: input(directSpec{
			Division: plannedDivision,
			SetJoin:  setJoinSpec{PGroups: 3000, QGroups: 3000, MaxSize: 64, Domain: 300, Contained: 600},
		}),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
