// Package a reproduces the worker-interning hazard of PR 5's batched
// exchange: a worker mutating a dictionary shared with the router (or
// with sibling workers) races rel.Interner's table. The legal patterns
// — interning on the route callback, worker-local dictionaries, and
// (since the snapshot epochs landed) reads of captured dictionaries on
// every path — must stay silent.
package a

import (
	"radiv/internal/engine"
	"radiv/internal/rel"
)

// InternInWorker is the historical bug shape: the exchange moves
// batches while the packing dictionary is still being written, and a
// worker interning into it races the router. Reading the captured
// dictionary is no longer flagged — under the snapshot contract the
// dictionaries a worker is handed are sealed, and the producer of a
// live packing dictionary is responsible for re-encoding before the
// exchange (division.DivideStream's pattern).
func InternInWorker(ex engine.Executor, in engine.Cursor, dict *rel.Interner, sink *rel.Relation, s rel.Store) {
	ex.StreamPartitioned(in, func(t rel.Tuple) int {
		return int(dict.Intern(t[0])) % 2 // route runs on the router goroutine: interning is safe here
	}, func(q int, shard engine.Cursor) {
		for t, ok := shard.Next(); ok; t, ok = shard.Next() {
			dict.Intern(t[0])    // want `Interner.Intern on a captured dictionary`
			sink.Add(t)          // want `Relation.Add interning into a captured relation`
			s.Add("out", t)      // want `Store.Add interning into a captured store`
			_, _ = dict.ID(t[0]) // reads of a captured dictionary are legal: sealed under the snapshot contract
		}
	})
}

// IDMapInWorker interns through a translation cache whose target
// dictionary is captured — the same race one indirection later.
func IDMapInWorker(ex engine.Executor, in engine.BatchCursor, xl *rel.IDMap) {
	ex.StreamPartitionedBatches(in, func(b *rel.Batch, row int) int {
		return int(b.Col(0)[row]) % 2
	}, func(q int, shard engine.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			xl.Intern(b.Dict(0), b.Col(0)[0]) // want `IDMap.Intern interning into a captured target dictionary`
			b.Release()
		}
	})
}

// WorkerLocal builds every dictionary inside the callback: private to
// the worker, outside the contract.
func WorkerLocal(ex engine.Executor, in engine.Cursor, results []*rel.Relation) {
	ex.StreamPartitioned(in, func(t rel.Tuple) int { return 0 }, func(q int, shard engine.Cursor) {
		local := rel.NewInterner()
		out := rel.NewRelation(1)
		for t, ok := shard.Next(); ok; t, ok = shard.Next() {
			local.Intern(t[0])
			out.Add(t)
		}
		results[q] = out
	})
}

// ShardedReads probes a captured dictionary on the pre-partitioned
// path: no router is interning, the dictionaries are quiescent, and
// read-only probing is the documented safe pattern.
func ShardedReads(ex engine.Executor, shards []engine.Cursor, dict *rel.Interner, hits []int) {
	ex.StreamSharded(shards, func(q int, shard engine.Cursor) {
		for t, ok := shard.Next(); ok; t, ok = shard.Next() {
			if _, ok := dict.ID(t[0]); ok {
				hits[q]++
			}
		}
	})
}

// ShardedIntern still may not mutate a captured dictionary even
// without a router: the sibling workers share it.
func ShardedIntern(ex engine.Executor, shards []engine.Cursor, dict *rel.Interner) {
	ex.StreamSharded(shards, func(q int, shard engine.Cursor) {
		for t, ok := shard.Next(); ok; t, ok = shard.Next() {
			dict.Intern(t[0]) // want `Interner.Intern on a captured dictionary`
		}
	})
}
