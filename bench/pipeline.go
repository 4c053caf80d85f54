package main

// The units of work: one raquery-shaped query run in process, one
// direct-sharded iteration, and the once-per-run cross-check of the
// generator's expectation against the library's oracles.

import (
	"bytes"
	"fmt"
	"time"
)

// governedTimeout is raquery's -timeout on div-asis: far above any
// query time, it only routes the query onto the governed executor.
const governedTimeout = 10 * time.Minute

// raqueryPipeline repeats, in process, the calls cmd/raquery.run
// makes for the workload — rel.ReadText, parser.ParseRA, plan.Compile,
// Plan.Execute (ExecuteContext when governed), fmt.Fprint — with a
// span around each, and returns what raquery would print.
func raqueryPipeline(w *workload, file []byte, tr *tracer, query int) ([]byte, error) {
	root := tr.begin("raquery.query", -1, query)
	defer tr.end(root)
	var (
		d   store
		e   expr
		p   compiled
		res relation
		err error
	)
	tr.callMem("rel.load", root, query, func() { d, err = loadText(file) })
	if err != nil {
		return nil, err
	}
	tr.call("parser.parse", root, query, func() { e, err = parseRA(w.query, d) })
	if err != nil {
		return nil, err
	}
	tr.call("plan.compile", root, query, func() { p, err = compile(e, d, w.optimize, false) })
	if err != nil {
		return nil, err
	}
	if w.governed {
		tr.callMem("exec.governed_execute", root, query, func() { res, err = executeGoverned(p, governedTimeout) })
		if err != nil {
			return nil, err
		}
	} else {
		tr.callMem(w.engine+".execute", root, query, func() { res = execute(p) })
	}
	var out bytes.Buffer
	tr.call("rel.emit", root, query, func() { emit(&out, res) })
	return out.Bytes(), nil
}

// directOps names the three sharded operations in iteration order;
// they are also the keys of a direct-sharded dataset's expectation.
var directOps = [3]string{"divide", "containment", "equality"}

// directIteration is one direct-sharded iteration: load the store
// into k shards, publish, and run the three sharded operations on the
// snapshot with k workers.
func directIteration(d store, k int, tr *tracer, query int) (results [3]relation, stats [3]shardStats) {
	root := tr.begin("shard.iteration", -1, query)
	defer tr.end(root)
	var db shardedDB
	var snap shardedSnap
	tr.call("shard.load", root, query, func() { db = shardLoad(d, k) })
	tr.call("shard.publish", root, query, func() { snap = shardPublish(db) })
	tr.call("shard.divide", root, query, func() { results[0], stats[0] = shardDivide(snap, k) })
	tr.call("shard.containment", root, query, func() { results[1], stats[1] = shardContainment(snap, k) })
	tr.call("shard.equality", root, query, func() { results[2], stats[2] = shardEquality(snap, k) })
	return results, stats
}

// checkDirect compares an iteration's results with the expectation.
func checkDirect(results [3]relation, expected map[string]string) error {
	for i, op := range directOps {
		if got := results[i].String(); got != expected[op] {
			return fmt.Errorf("%s: %d result bytes differ from the %d expected", op, len(got), len(expected[op]))
		}
	}
	return nil
}

// crossCheck verifies, once per run, that the expectation derived
// from the generator's construction agrees with the library's
// independent oracles on the generated file: the materialized ra.Eval
// (and sa.Eval of the linearized plan) for the raquery workloads,
// division.Reference and setjoin.Reference for the division and
// set-join instances.
func crossCheck(w *workload, ds dataset) error {
	d, err := loadText(ds.file)
	if err != nil {
		return err
	}
	agree := func(oracle, got, want string) error {
		if got != want {
			return fmt.Errorf("%s: %s returns %d bytes, the generator expects %d", w.name, oracle, len(got), len(want))
		}
		return nil
	}
	if w.direct() {
		containment, equality := oracleSetJoins(d)
		if err := agree("setjoin.Reference(containment)", containment, ds.expected["containment"]); err != nil {
			return err
		}
		if err := agree("setjoin.Reference(equality)", equality, ds.expected["equality"]); err != nil {
			return err
		}
		return agree("division.Reference", oracleDivision(d), ds.expected["divide"])
	}
	e, err := parseRA(w.query, d)
	if err != nil {
		return err
	}
	if err := agree("ra.Eval", oracleRA(e, d), ds.expected["stdout"]); err != nil {
		return err
	}
	if w.query == classicalDivision {
		return agree("division.Reference", oracleDivision(d), ds.expected["stdout"])
	}
	p, err := compile(e, d, w.optimize, false)
	if err != nil {
		return err
	}
	text, ok := oracleSA(p, d)
	if !ok {
		return fmt.Errorf("%s: the optimized plan is not in SA", w.name)
	}
	return agree("sa.Eval", text, ds.expected["stdout"])
}
