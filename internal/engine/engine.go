// Package engine provides the shared execution substrate for the fast
// paths of the library: a hash-partitioned parallel executor over the
// value-interning dictionaries of package rel (rel.Interner:
// rel.Value → dense uint32 ID).
//
// The paper's algorithm comparisons (division in Proposition 26 and
// footnote 1, set joins in the introduction) are about constant
// factors as much as asymptotics: a hash division that allocates a
// key string per probe measures the allocator, not the algorithm.
// Interning replaces every string-keyed map on the hot paths with
// integer probes, and the executor shards group-keyed work (division
// groups, set-join groups) across a goroutine pool, merging
// per-partition results in deterministic partition order.
//
// Usage pattern of the parallel operators in internal/division and
// internal/setjoin:
//
//  1. build phase (sequential): intern the partitioning keys, compute
//     each item's partition with PartOf, and collect per-partition
//     index lists;
//  2. work phase (parallel): Executor.Run processes partitions on a
//     worker pool; workers only read the shared dictionaries;
//  3. merge phase (sequential): per-partition outputs concatenate in
//     partition order, so a run with W workers returns exactly the
//     same relation as the sequential algorithm.
//
// Input that is already partitioned at storage time (internal/shard)
// skips the build phase: StreamShardedBatchesGov hands each shard's
// batch cursor to one task of the same pool.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// Executor is a worker pool for partitioned execution. The zero value
// is valid and uses one worker per available CPU.
type Executor struct {
	// Workers is the number of goroutines; values <= 0 mean
	// runtime.GOMAXPROCS(0).
	Workers int
}

// WorkerCount resolves the effective number of workers.
func (e Executor) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PartitionCount returns the number of partitions to shard into: a
// small multiple of the worker count so that skewed partitions can be
// rebalanced by work stealing, capped to keep per-partition overhead
// negligible. It depends only on the worker count, keeping partition
// assignment — and hence merge order — deterministic for a given
// configuration.
func (e Executor) PartitionCount() int {
	p := 4 * e.WorkerCount()
	if p < 1 {
		p = 1
	}
	if p > 256 {
		p = 256
	}
	return p
}

// Run invokes f(i) exactly once for every i in [0, tasks), spreading
// the calls over the worker pool. Tasks are claimed atomically, so
// uneven task costs balance across workers. Run returns when all
// tasks have completed. With one worker (or one task) it degenerates
// to a sequential loop with no goroutine overhead.
func (e Executor) Run(tasks int, f func(task int)) {
	if tasks <= 0 {
		return
	}
	w := e.WorkerCount()
	if w > tasks {
		w = tasks
	}
	if w <= 1 {
		for i := 0; i < tasks; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= tasks {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// RunGoverned is Run under a query governor: a panicking task aborts
// the query (recording the first cause) instead of killing the
// process, workers stop claiming tasks once the query is aborted, and
// RunGoverned returns only after every started task has finished —
// callers check g.Err() for the outcome. With a nil governor it is
// exactly Run.
func (e Executor) RunGoverned(g *exec.Governor, tasks int, f func(task int)) {
	if g == nil {
		e.Run(tasks, f)
		return
	}
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				g.AbortRecovered(r)
			}
		}()
		f(i)
	}
	if tasks <= 0 {
		return
	}
	w := e.WorkerCount()
	if w > tasks {
		w = tasks
	}
	if w <= 1 {
		for i := 0; i < tasks && !g.Aborted(); i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for !g.Aborted() {
				i := int(next.Add(1)) - 1
				if i >= tasks {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// StreamShardedBatchesGov runs work(q, shards[q]) once per shard over
// the worker pool, under a query governor (nil means ungoverned). The
// input is already partitioned: one batch cursor per shard-local
// store, with the partition invariant (all tuples of a group in one
// shard) established at storage time. A panicking shard task aborts
// the query instead of killing the process and remaining shards are
// skipped; callers check g.Err(). It returns the shard count.
func (e Executor) StreamShardedBatchesGov(g *exec.Governor, shards []rel.BatchCursor, work func(q int, shard rel.BatchCursor)) int {
	e.RunGoverned(g, len(shards), func(q int) { work(q, shards[q]) })
	return len(shards)
}

// PartOf maps an interned ID to a partition in [0, parts). The ID is
// avalanche-mixed first so that dense dictionary IDs (0, 1, 2, ...)
// spread evenly rather than striping.
func PartOf(id uint32, parts int) int {
	if parts <= 1 {
		return 0
	}
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(parts))
}

// PartitionByFirst shards the tuples of a binary-or-wider relation by
// the interned ID of their first component: it interns every group
// key into in (sequentially, so IDs are deterministic) and returns,
// per partition, the indices of the tuples assigned to it. All tuples
// sharing a group key land in the same partition, which is what makes
// per-partition group processing exact rather than approximate.
func PartitionByFirst(in *rel.Interner, tuples []rel.Tuple, parts int) [][]int32 {
	out := make([][]int32, parts)
	for i, t := range tuples {
		q := PartOf(in.Intern(t[0]), parts)
		out[q] = append(out[q], int32(i))
	}
	return out
}
