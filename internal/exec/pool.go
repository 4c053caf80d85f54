package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker count: n itself when positive, one per
// CPU (runtime.GOMAXPROCS(0)) otherwise.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run is the worker pool: it invokes f(i) exactly once for every i in
// [0, tasks), spreading the calls over Workers(workers) goroutines.
// Tasks are claimed atomically, so uneven task costs balance across
// workers. Run returns when all tasks have completed. With one worker
// (or one task) it is a plain loop on the caller's goroutine.
//
// The tasks run concurrently with each other, so f may read shared
// state but must not intern into a dictionary it captures (Contract 2
// in internal/analysis/doc.go).
func Run(workers, tasks int, f func(task int)) {
	if tasks <= 0 {
		return
	}
	w := min(Workers(workers), tasks)
	if w <= 1 {
		for i := 0; i < tasks; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
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
