package engine

import (
	"errors"
	"sync/atomic"
	"testing"

	"radiv/internal/exec"
	"radiv/internal/leakcheck"
	"radiv/internal/rel"
)

// shardScans returns one lazily packed batch cursor per shard: shard q
// holds the unary tuples q, q+shards, q+2·shards, … (rows of them). The
// batches are pooled, so a cursor that is never pulled allocates none.
func shardScans(shards, rows int) []rel.BatchCursor {
	out := make([]rel.BatchCursor, shards)
	for q := range out {
		s := &packedScan{rows: rows, dict: rel.NewInterner()}
		for i := 0; i < rows; i++ {
			s.dict.Intern(rel.Int(int64(q + i*shards))) // ID i
		}
		out[q] = s
	}
	return out
}

// packedScan yields the IDs 0…rows-1 of its dictionary in pooled
// batches of 8 rows.
type packedScan struct {
	rows, i int
	dict    *rel.Interner
}

func (s *packedScan) NextBatch() (*rel.Batch, bool) {
	if s.i >= s.rows {
		return nil, false
	}
	b := rel.NewBatchSized(1, 8)
	b.SetDict(0, s.dict)
	col, n := b.WritableCol(0), 0
	for ; n < 8 && s.i < s.rows; n++ {
		col[n] = uint32(s.i)
		s.i++
	}
	b.SetLen(n)
	return b, true
}

// TestStreamShardedRunsEveryShardOnce: the shard-aware exchange hands
// each pre-partitioned cursor to work exactly once, with its own index,
// across worker counts — including workers > shards and workers == 1 —
// ungoverned, and leaves no pooled batch live.
func TestStreamShardedRunsEveryShardOnce(t *testing.T) {
	leakcheck.Check(t)
	const shards, rows = 3, 20
	for _, workers := range []int{1, 2, 4, 8} {
		live, _, _ := rel.BatchPoolStats()
		var calls [shards]atomic.Int64
		var seen [shards]int
		n := Executor{Workers: workers}.StreamShardedBatchesGov(nil, shardScans(shards, rows), func(q int, shard rel.BatchCursor) {
			calls[q].Add(1)
			for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
				for row := 0; row < b.Len(); row++ {
					if v := b.Value(0, row).AsInt(); int(v)%shards != q {
						t.Errorf("workers %d: shard %d saw row %d", workers, q, v)
					}
					seen[q]++
				}
				b.Release()
			}
		})
		if n != shards {
			t.Fatalf("workers %d: reported %d shards, want %d", workers, n, shards)
		}
		for q := range calls {
			if c := calls[q].Load(); c != 1 {
				t.Errorf("workers %d: shard %d processed %d times", workers, q, c)
			}
			if seen[q] != rows {
				t.Errorf("workers %d: shard %d saw %d rows, want %d", workers, q, seen[q], rows)
			}
		}
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("workers %d: %d batches leaked", workers, after-live)
		}
	}
}

// TestStreamShardedGovWorkerPanicAborts: a panicking shard task must
// surface as the governor's abort cause — not kill the process — the
// shards after it must be skipped, and the exchange must join every
// goroutine and leave no pooled batch live. With one worker the shard
// order is sequential, so "skipped" is exact.
func TestStreamShardedGovWorkerPanicAborts(t *testing.T) {
	leakcheck.Check(t)
	boom := errors.New("worker exploded")
	const shards = 8
	for _, workers := range []int{1, 4} {
		live, _, _ := rel.BatchPoolStats()
		var ran [shards]atomic.Bool
		err := func() (err error) {
			g := exec.NewGovernor(nil, exec.Limits{})
			defer g.Recover(&err)
			Executor{Workers: workers}.StreamShardedBatchesGov(g, shardScans(shards, 50), func(q int, shard rel.BatchCursor) {
				ran[q].Store(true)
				if q == 1 {
					panic(boom)
				}
				for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
					b.Release()
				}
			})
			g.Check() // observe the abort on the boundary goroutine
			return nil
		}()
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: abort cause %v does not wrap the worker panic", workers, err)
		}
		if workers == 1 {
			for q := 2; q < shards; q++ {
				if ran[q].Load() {
					t.Errorf("workers 1: shard %d ran after the abort", q)
				}
			}
		}
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("workers %d: %d batches leaked on worker panic", workers, after-live)
		}
	}
}

// TestRunGovernedSkipsAfterAbort: once a task aborts the query, the
// pool stops claiming new tasks, and the recorded cause is the first
// failure.
func TestRunGovernedSkipsAfterAbort(t *testing.T) {
	leakcheck.Check(t)
	boom := errors.New("task failed")
	g := exec.NewGovernor(nil, exec.Limits{})
	Executor{Workers: 1}.RunGoverned(g, 100, func(i int) {
		if i == 3 {
			panic(boom)
		}
		if i > 3 {
			t.Errorf("task %d ran after abort", i)
		}
	})
	if err := g.Err(); !errors.Is(err, boom) {
		t.Fatalf("cause %v does not wrap the task panic", err)
	}
}
