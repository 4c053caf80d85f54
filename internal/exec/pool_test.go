package exec_test

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"radiv/internal/exec"
	"radiv/internal/leakcheck"
	"radiv/internal/rel"
)

func TestRunRunsEveryTaskOnce(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{0, 1, 2, 7} {
		const tasks = 1000
		counts := make([]atomic.Int32, tasks)
		exec.Run(workers, tasks, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
		exec.Run(workers, 0, func(i int) { t.Fatalf("workers=%d: task %d ran with tasks = 0", workers, i) })
	}
}

func TestRunParallelism(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	ready := make(chan struct{})
	var once sync.Once
	exec.Run(4, 8, func(i int) {
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

// goroutineHeader returns the first line of the calling goroutine's
// stack trace, "goroutine N [running]:", which names the goroutine.
func goroutineHeader() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	line, _, _ := bytes.Cut(buf, []byte("\n"))
	return string(line)
}

// TestRunOneWorkerIsALoop: with one worker, Run calls the tasks in
// order on the caller's goroutine and starts none of its own.
func TestRunOneWorkerIsALoop(t *testing.T) {
	caller := goroutineHeader()
	var order []int
	exec.Run(1, 5, func(i int) {
		if g := goroutineHeader(); g != caller {
			t.Errorf("task %d ran on %q, want the caller's %q", i, g, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("tasks ran in order %v, want 0…4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d tasks, want 5", len(order))
	}
}

func TestWorkers(t *testing.T) {
	if exec.Workers(0) < 1 || exec.Workers(-3) < 1 {
		t.Error("a non-positive worker count must resolve to at least one worker")
	}
	if exec.Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
}

func TestPartOfRange(t *testing.T) {
	seen := make(map[int]bool)
	for id := uint32(0); id < 1000; id++ {
		q := exec.PartOf(id, 8)
		if q < 0 || q >= 8 {
			t.Fatalf("PartOf(%d, 8) = %d out of range", id, q)
		}
		seen[q] = true
	}
	if len(seen) != 8 {
		t.Errorf("dense IDs hit only %d of 8 partitions", len(seen))
	}
	if exec.PartOf(42, 1) != 0 || exec.PartOf(42, 0) != 0 {
		t.Error("degenerate partition counts must map to 0")
	}
}

// packedScan yields the IDs 0…rows-1 of its dictionary in batches of
// 8 rows, refilling its one batch on every pull, which its reader
// decodes through dict.
type packedScan struct {
	rows, i int
	dict    *rel.Interner
	b       *rel.Batch
}

func (s *packedScan) NextBatch() (*rel.Batch, bool) {
	if s.i >= s.rows {
		return nil, false
	}
	if s.b == nil {
		s.b = rel.NewBatchSized(1, 8)
	}
	b := s.b
	b.Reset()
	col, n := b.WritableCol(0), 0
	for ; n < 8 && s.i < s.rows; n++ {
		col[n] = uint32(s.i)
		s.i++
	}
	b.SetLen(n)
	return b, true
}

// TestRunDrainsEveryShardOnce is the shape of the sharded operators:
// one task per shard cursor. Each cursor is handed to exactly one task
// with its own index, across worker counts — including workers >
// shards and workers == 1.
func TestRunDrainsEveryShardOnce(t *testing.T) {
	leakcheck.Check(t)
	const shards, rows = 3, 20
	for _, workers := range []int{1, 2, 4, 8} {
		cursors := make([]rel.BatchCursor, shards)
		for q := range cursors {
			s := &packedScan{rows: rows, dict: rel.NewInterner()}
			for i := 0; i < rows; i++ {
				s.dict.Intern(rel.Int(int64(q + i*shards))) // ID i
			}
			cursors[q] = s
		}
		var calls [shards]atomic.Int64
		var seen [shards]int
		exec.Run(workers, shards, func(q int) {
			calls[q].Add(1)
			dict := cursors[q].(*packedScan).dict
			for b, ok := cursors[q].NextBatch(); ok; b, ok = cursors[q].NextBatch() {
				for row := 0; row < b.Len(); row++ {
					if v := dict.Value(b.Col(0)[row]).AsInt(); int(v)%shards != q {
						t.Errorf("workers %d: shard %d saw row %d", workers, q, v)
					}
					seen[q]++
				}
			}
		})
		for q := range calls {
			if c := calls[q].Load(); c != 1 {
				t.Errorf("workers %d: shard %d processed %d times", workers, q, c)
			}
			if seen[q] != rows {
				t.Errorf("workers %d: shard %d saw %d rows, want %d", workers, q, seen[q], rows)
			}
		}
	}
}
