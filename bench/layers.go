package main

// layers.go is the benchmark's single binding file: every import of
// radiv/internal/... is here, and the rest of the benchmark reaches the
// library only through the functions below. An API change in radiv
// that breaks the benchmark breaks this file and nothing else.
//
// Pinned symbols, by layer:
//
//	rel       ReadText, Database.{Schema,Rel}, Relation.{Add,Cursor,Len,Tuples,String},
//	          NewRelation, NewInterner, Interner.Intern, Cursor.Next
//	parser    ParseRA
//	plan      Compile, Options{Optimize,Vectorize}, Plan.{Execute,ExecuteContext,
//	          ExecuteTraced,Engine,Firings,Root}, Trace.{MaxIntermediate,MaxResident,
//	          TotalTuples}, ToSA
//	ra, sa    Eval (the materialized oracles)
//	shard     FromStore, Database.Publish, Divide, ContainmentJoin, EqualityJoin,
//	          Stats.{MergeTime,Merged,ShardResident}
//	division  Hash, ParallelHash{Workers}, Reference, Containment, Stats.{Probes,Comparisons}
//	setjoin   Groups, SignatureContainment, HashEquality, Reference, Containment, Equal,
//	          Stats.{PairsConsidered,Verifications}
//
// exec and engine are measured through plan.Plan.ExecuteContext and
// division.ParallelHash; xra only through plans bound to it. raquery's
// governed, unoptimized path calls ra.EvalStreamedContext directly;
// the benchmark mirrors it with an unoptimized Plan.ExecuteContext,
// which runs the same governed core plus a re-sort of the result.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"radiv/internal/division"
	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/setjoin"
	"radiv/internal/shard"
)

type (
	store    = *rel.Database
	relation = *rel.Relation
	expr     = ra.Expr
	compiled = *plan.Plan
	groups   = []*setjoin.Group
)

// --- the raquery pipeline: load → parse → compile → execute → emit ---

func loadText(file []byte) (store, error) { return rel.ReadText(bytes.NewReader(file)) }

func parseRA(src string, d store) (expr, error) { return parser.ParseRA(src, d.Schema()) }

func compile(e expr, d store, optimize, vectorize bool) (compiled, error) {
	return plan.Compile(e, d, plan.Options{Optimize: optimize, Vectorize: vectorize})
}

func execute(p compiled) relation { return p.Execute() }

// executeGoverned is what raquery -timeout runs: the plan under a
// governor watching a deadline.
func executeGoverned(p compiled, timeout time.Duration) (relation, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return p.ExecuteContext(ctx)
}

// flowCounts are the paper's measures of one execution.
type flowCounts struct{ maxIntermediate, maxResident, totalTuples int }

func executeCounted(p compiled) (relation, flowCounts) {
	res, tr := p.ExecuteTraced()
	return res, flowCounts{tr.MaxIntermediate, tr.MaxResident, tr.TotalTuples}
}

func emit(w io.Writer, res relation) { fmt.Fprint(w, res) }

func engineOf(p compiled) string { return string(p.Engine()) }

func rulesFired(p compiled) int { return len(p.Firings()) }

// --- rel micro-layers, over a database's own tuple stream ---

// tupleStream returns every relation's tuples in insertion order.
func tupleStream(d store) [][]rel.Tuple {
	var out [][]rel.Tuple
	for _, name := range d.Schema().Names() {
		out = append(out, d.Rel(name).Tuples())
	}
	return out
}

// internAll interns every value of the stream into one fresh
// dictionary and returns the number of values.
func internAll(stream [][]rel.Tuple) int {
	in := rel.NewInterner()
	n := 0
	for _, ts := range stream {
		for _, t := range ts {
			for _, v := range t {
				in.Intern(v)
			}
			n += len(t)
		}
	}
	return n
}

// addAll adds each relation's tuples to a fresh relation (every Add
// accepts) and returns the relations for dupAddAll and scanAll.
func addAll(stream [][]rel.Tuple) []relation {
	out := make([]relation, len(stream))
	for i, ts := range stream {
		r := rel.NewRelation(len(ts[0]))
		for _, t := range ts {
			r.Add(t)
		}
		out[i] = r
	}
	return out
}

// dupAddAll re-adds the stream to relations that already hold it:
// every Add is rejected as a duplicate.
func dupAddAll(rels []relation, stream [][]rel.Tuple) {
	for i, ts := range stream {
		for _, t := range ts {
			rels[i].Add(t)
		}
	}
}

// scanAll drains a Cursor over each relation and returns the tuples seen.
func scanAll(rels []relation) int {
	n := 0
	for _, r := range rels {
		c := r.Cursor()
		for _, ok := c.Next(); ok; _, ok = c.Next() {
			n++
		}
	}
	return n
}

// --- direct-sharded: the sharded store and its sequential twins ---

type (
	shardedDB   = *shard.Database
	shardedSnap = *shard.Snapshot
)

// shardStats is the part of shard.Stats the benchmark reports.
type shardStats struct {
	merge       time.Duration
	merged      int
	residentMax int
}

func toShardStats(st shard.Stats) shardStats {
	out := shardStats{merge: st.MergeTime, merged: st.Merged}
	for _, n := range st.ShardResident {
		out.residentMax = max(out.residentMax, n)
	}
	return out
}

func shardLoad(d store, k int) shardedDB { return shard.FromStore(d, k) }

func shardPublish(db shardedDB) shardedSnap { return db.Publish() }

func shardDivide(s shardedSnap, k int) (relation, shardStats) {
	res, st := shard.Divide(s, "R", "S", division.Containment, k)
	return res, toShardStats(st)
}

func shardContainment(s shardedSnap, k int) (relation, shardStats) {
	res, st := shard.ContainmentJoin(s, "P", "Q", k)
	return res, toShardStats(st)
}

func shardEquality(s shardedSnap, k int) (relation, shardStats) {
	res, st := shard.EqualityJoin(s, "P", "Q", k)
	return res, toShardStats(st)
}

func hashDivide(d store) (res relation, probes, comparisons int) {
	res, st := division.Hash{}.Divide(d.Rel("R"), d.Rel("S"), division.Containment)
	return res, st.Probes, st.Comparisons
}

// routedDivide is hash division through the engine's routed exchange.
func routedDivide(d store, k int) relation {
	res, _ := division.ParallelHash{Workers: k}.Divide(d.Rel("R"), d.Rel("S"), division.Containment)
	return res
}

func setGroups(d store) (p, q groups) { return setjoin.Groups(d.Rel("P")), setjoin.Groups(d.Rel("Q")) }

func signatureContainment(p, q groups) (res relation, pairs, verifications int) {
	res, st := setjoin.SignatureContainment{}.Join(p, q)
	return res, st.PairsConsidered, st.Verifications
}

func hashEquality(p, q groups) relation {
	res, _ := setjoin.HashEquality{}.Join(p, q)
	return res
}

// --- oracles, run once per set-up to cross-check the generator's expectation ---

// oracleRA evaluates the expression with the materialized ra.Eval.
func oracleRA(e expr, d store) string { return ra.Eval(e, d).String() }

// oracleSA evaluates the plan with the materialized sa.Eval; ok is
// false when the plan is not expressible in SA.
func oracleSA(p compiled, d store) (text string, ok bool) {
	e, ok := plan.ToSA(p.Root())
	if !ok {
		return "", false
	}
	return sa.Eval(e, d).String(), true
}

func oracleDivision(d store) string {
	return division.Reference(d.Rel("R"), d.Rel("S"), division.Containment).String()
}

func oracleSetJoins(d store) (containment, equality string) {
	p, q := setGroups(d)
	return setjoin.Reference(p, q, setjoin.Containment).String(),
		setjoin.Reference(p, q, setjoin.Equal).String()
}
