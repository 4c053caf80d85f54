// Package a reproduces the worker-interning hazard: a worker mutating
// a dictionary shared with its sibling workers races rel.Interner's
// table. The legal patterns — worker-local dictionaries and reads of
// captured dictionaries — must stay silent. The worker pool is
// exec.Run, in both its shapes: one task per shard cursor and one task
// per partition; a function that is merely named Run is not the pool.
package a

import (
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// InternInWorker is the bug shape on the sharded operators: each
// worker decodes its shard's batches and interns the values into a
// dictionary every other worker also holds. Reading the captured
// dictionary is not flagged — under the snapshot contract the
// dictionaries a worker is handed are sealed.
func InternInWorker(workers int, shards []rel.BatchCursor, dict *rel.Interner, sink *rel.Relation, d *rel.Database) {
	exec.Run(workers, len(shards), func(q int) {
		shard := shards[q]
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				t := rel.Tuple{b.Dict().Value(b.Col(0)[row])}
				dict.Intern(t[0])    // want `Interner.Intern on a captured dictionary`
				sink.Add(t)          // want `Relation.Add interning into a captured relation`
				d.Add("out", t)      // want `Database.Add interning into a captured database`
				d.AddInts("n", 1)    // want `Database.AddInts interning into a captured database`
				d.AddStrs("s", "x")  // want `Database.AddStrs interning into a captured database`
				_ = d.Rel("out")     // reading a captured database is legal
				_, _ = dict.ID(t[0]) // reads of a captured dictionary are legal: sealed under the snapshot contract
			}
		}
	})
}

// BasedInWorker interns into a result's dictionary, based on a store's,
// from the workers that share it: its tail is an Interner like any
// other.
func BasedInWorker(workers int, parts [][]rel.Tuple, d *rel.Database) {
	res := rel.NewRelationOver(1, d.Dict())
	tail := res.Interner()
	exec.Run(workers, len(parts), func(i int) {
		for _, t := range parts[i] {
			tail.Intern(t[0]) // want `Interner.Intern on a captured dictionary`
			res.Add(t)        // want `Relation.Add interning into a captured relation`
		}
	})
}

// BasedPerWorker gives each worker a result of its own over one store
// dictionary: the tails are private and the base is only read — silent.
func BasedPerWorker(workers int, parts [][]rel.Tuple, d *rel.Database) {
	base := d.Dict()
	exec.Run(workers, len(parts), func(i int) {
		res := rel.NewRelationOver(1, base)
		for _, t := range parts[i] {
			res.Add(t)
		}
	})
}

// WorkerLocal builds every dictionary inside the callback: private to
// the worker, outside the contract.
func WorkerLocal(workers int, parts [][]rel.Tuple, results []*rel.Relation) {
	exec.Run(workers, len(parts), func(q int) {
		local := rel.NewInterner()
		out := rel.NewRelation(1)
		for _, t := range parts[q] {
			local.Intern(t[0])
			out.Add(t)
		}
		results[q] = out
	})
}

// ShardedReads probes a captured dictionary from the per-shard
// workers: read-only probing is the documented safe pattern.
func ShardedReads(workers int, shards []rel.BatchCursor, dict *rel.Interner, hits []int) {
	exec.Run(workers, len(shards), func(q int) {
		for b, ok := shards[q].NextBatch(); ok; b, ok = shards[q].NextBatch() {
			for row := 0; row < b.Len(); row++ {
				if _, ok := dict.ID(b.Dict().Value(b.Col(0)[row])); ok {
					hits[q]++
				}
			}
		}
	})
}

// ShardedIntern may not mutate a captured dictionary from a pool task
// either: the sibling tasks share it.
func ShardedIntern(workers int, parts [][]rel.Tuple, dict *rel.Interner) {
	exec.Run(workers, len(parts), func(q int) {
		for _, t := range parts[q] {
			dict.Intern(t[0]) // want `Interner.Intern on a captured dictionary`
		}
	})
}

// Run shares exec.Run's name and signature but calls its tasks in
// order on the caller's goroutine: it is not the pool.
func Run(workers, tasks int, f func(task int)) {
	for i := 0; i < tasks; i++ {
		f(i)
	}
}

// LocalRunIsNotThePool interns into a captured dictionary from the
// callback of the local Run. Only exec.Run's callbacks are workers, so
// the matcher must check the callee's package as well as its name:
// silent.
func LocalRunIsNotThePool(parts [][]rel.Tuple, dict *rel.Interner) {
	Run(2, len(parts), func(q int) {
		for _, t := range parts[q] {
			dict.Intern(t[0])
		}
	})
}
