// Package a reproduces the worker-interning hazard: a worker mutating
// a dictionary shared with its sibling workers races rel.Interner's
// table. The legal patterns — worker-local dictionaries and reads of
// captured dictionaries — must stay silent. Every engine.Executor
// entry point that runs a worker callback is covered: Run,
// RunGoverned and StreamShardedBatchesGov.
package a

import (
	"radiv/internal/engine"
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// InternInWorker is the bug shape on the sharded exchange: each worker
// decodes its shard's batches and interns the values into a dictionary
// every other worker also holds. Reading the captured dictionary is
// not flagged — under the snapshot contract the dictionaries a worker
// is handed are sealed.
func InternInWorker(ex engine.Executor, g *exec.Governor, shards []rel.BatchCursor, dict *rel.Interner, sink *rel.Relation, s rel.Store) {
	ex.StreamShardedBatchesGov(g, shards, func(q int, shard rel.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				t := rel.Tuple{b.Value(0, row)}
				dict.Intern(t[0])    // want `Interner.Intern on a captured dictionary`
				sink.Add(t)          // want `Relation.Add interning into a captured relation`
				s.Add("out", t)      // want `Store.Add interning into a captured store`
				_, _ = dict.ID(t[0]) // reads of a captured dictionary are legal: sealed under the snapshot contract
			}
			b.Release()
		}
	})
}

// IDMapInWorker interns through a translation cache whose target
// dictionary is captured — the same race one indirection later.
func IDMapInWorker(ex engine.Executor, batches []*rel.Batch, xl *rel.IDMap) {
	ex.Run(len(batches), func(q int) {
		b := batches[q]
		xl.Intern(b.Dict(0), b.Col(0)[0]) // want `IDMap.Intern interning into a captured target dictionary`
	})
}

// WorkerLocal builds every dictionary inside the callback: private to
// the worker, outside the contract.
func WorkerLocal(ex engine.Executor, g *exec.Governor, parts [][]rel.Tuple, results []*rel.Relation) {
	ex.RunGoverned(g, len(parts), func(q int) {
		local := rel.NewInterner()
		out := rel.NewRelation(1)
		for _, t := range parts[q] {
			local.Intern(t[0])
			out.Add(t)
		}
		results[q] = out
	})
}

// ShardedReads probes a captured dictionary from the sharded
// exchange's workers: read-only probing is the documented safe
// pattern.
func ShardedReads(ex engine.Executor, shards []rel.BatchCursor, dict *rel.Interner, hits []int) {
	ex.StreamShardedBatchesGov(nil, shards, func(q int, shard rel.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				if _, ok := dict.ID(b.Value(0, row)); ok {
					hits[q]++
				}
			}
			b.Release()
		}
	})
}

// ShardedIntern may not mutate a captured dictionary from a pool task
// either: the sibling tasks share it.
func ShardedIntern(ex engine.Executor, g *exec.Governor, parts [][]rel.Tuple, dict *rel.Interner) {
	ex.RunGoverned(g, len(parts), func(q int) {
		for _, t := range parts[q] {
			dict.Intern(t[0]) // want `Interner.Intern on a captured dictionary`
		}
	})
}
