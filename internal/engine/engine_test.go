package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"radiv/internal/rel"
)

func TestExecutorRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		ex := Executor{Workers: workers}
		const tasks = 1000
		counts := make([]atomic.Int32, tasks)
		ex.Run(tasks, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestExecutorParallelism(t *testing.T) {
	ex := Executor{Workers: 4}
	var mu sync.Mutex
	inFlight, peak := 0, 0
	ready := make(chan struct{})
	var once sync.Once
	ex.Run(8, func(i int) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		reached := inFlight >= 2
		mu.Unlock()
		if reached {
			once.Do(func() { close(ready) })
		}
		<-ready // all tasks wait until two run concurrently
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if peak < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak)
	}
}

func TestPartOfRange(t *testing.T) {
	seen := make(map[int]bool)
	for id := uint32(0); id < 1000; id++ {
		q := PartOf(id, 8)
		if q < 0 || q >= 8 {
			t.Fatalf("PartOf(%d, 8) = %d out of range", id, q)
		}
		seen[q] = true
	}
	if len(seen) != 8 {
		t.Errorf("dense IDs hit only %d of 8 partitions", len(seen))
	}
	if PartOf(42, 1) != 0 || PartOf(42, 0) != 0 {
		t.Error("degenerate partition counts must map to 0")
	}
}

func TestPartitionByFirstKeepsGroupsTogether(t *testing.T) {
	r := rel.NewRelation(2)
	for g := int64(0); g < 50; g++ {
		for e := int64(0); e < 4; e++ {
			r.Add(rel.Ints(g, e))
		}
	}
	in := rel.NewInterner()
	tuples := r.Tuples()
	parts := PartitionByFirst(in, tuples, 8)
	covered := 0
	groupPart := map[int64]int{}
	for q, idxs := range parts {
		for _, i := range idxs {
			covered++
			g := tuples[i][0].AsInt()
			if prev, ok := groupPart[g]; ok && prev != q {
				t.Fatalf("group %d split across partitions %d and %d", g, prev, q)
			}
			groupPart[g] = q
		}
	}
	if covered != len(tuples) {
		t.Fatalf("partitioning covered %d of %d tuples", covered, len(tuples))
	}
}

func TestExecutorDefaults(t *testing.T) {
	if (Executor{}).WorkerCount() < 1 {
		t.Error("zero Executor must have at least one worker")
	}
	if (Executor{Workers: 3}).WorkerCount() != 3 {
		t.Error("explicit worker count not honored")
	}
	if p := (Executor{Workers: 2}).PartitionCount(); p != 8 {
		t.Errorf("PartitionCount for 2 workers = %d, want 8", p)
	}
	if p := (Executor{Workers: 1000}).PartitionCount(); p != 256 {
		t.Errorf("PartitionCount cap broken: %d", p)
	}
}
