package division

import (
	"fmt"
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

// divideShard is the row-walking reference DivideShardBatches is
// tested against: the same Graefe bitmap scheme over a tuple cursor,
// with groups accumulated by value.
func divideShard(dt *DivisorTable, shard *rel.Cursor, sem Semantics) (map[rel.Value]bool, Stats) {
	var st Stats
	local := make(map[rel.Value]*divGroup)
	for t, ok := shard.Next(); ok; t, ok = shard.Next() {
		st.TuplesRead++
		st.Probes++
		g := local[t[0]]
		if g == nil {
			g = &divGroup{rep: t[0], seen: make([]uint64, dt.words)}
			local[t[0]] = g
		}
		st.Probes++
		if slot, ok := dt.slots.ID(t[1]); ok {
			g.mark(slot)
		} else {
			g.extras++
		}
	}
	st.MaxMemoryTuples = len(local) + len(local)*dt.words
	qualified := make(map[rel.Value]bool, len(local))
	for v, g := range local {
		if g.hits == dt.need && (sem == Containment || g.extras == 0) {
			qualified[v] = true
		}
	}
	return qualified, st
}

// TestDivideShardBatchesMatchesDivideShard: the vectorized shard
// divider must qualify exactly the groups the tuple-at-a-time
// reference does, with identical read/probe counters, on randomized
// workloads under both semantics and across batch sizes.
func TestDivideShardBatchesMatchesDivideShard(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r, s := workload.RandomDivision(seed).Generate()
		dt := NewDivisorTable(s)
		for _, sem := range []Semantics{Containment, Equality} {
			want, wantSt := divideShard(dt, r.Cursor(), sem)
			for _, size := range []int{1, 64, 1024} {
				got, gotSt := dt.DivideShardBatches(r.BatchScanSized(size), sem)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s size=%d: %d qualified, want %d", seed, sem, size, len(got), len(want))
				}
				for v := range want {
					if !got[v] {
						t.Fatalf("seed %d %s size=%d: group %v missing", seed, sem, size, v)
					}
				}
				if gotSt.TuplesRead != wantSt.TuplesRead || gotSt.Probes != wantSt.Probes {
					t.Errorf("seed %d %s size=%d: stats read=%d probes=%d, want read=%d probes=%d",
						seed, sem, size, gotSt.TuplesRead, gotSt.Probes, wantSt.TuplesRead, wantSt.Probes)
				}
				if gotSt.MaxMemoryTuples != wantSt.MaxMemoryTuples {
					t.Errorf("seed %d %s size=%d: memory %d, want %d", seed, sem, size, gotSt.MaxMemoryTuples, wantSt.MaxMemoryTuples)
				}
			}
		}
	}
}

// TestDivideShardBatchesMixedDictionaries feeds batches whose columns
// come from two different dictionaries mid-stream (as the exchange can
// produce after a staging flush), checking the translation caches
// handle a dictionary change.
func TestDivideShardBatchesMixedDictionaries(t *testing.T) {
	r1 := rel.FromRows(2, []int64{1, 10}, []int64{1, 11}, []int64{2, 10})
	r2 := rel.FromRows(2, []int64{2, 11}, []int64{3, 10}, []int64{3, 11})
	s := rel.FromRows(1, []int64{10}, []int64{11})
	dt := NewDivisorTable(s)
	got, _ := dt.DivideShardBatches(&concatBatches{cs: []rel.BatchCursor{r1.BatchScan(), r2.BatchScan()}}, Containment)
	// Groups whole across the two sub-streams: 1 (10, 11), 3 (10, 11)
	// qualify; 2 has 10 in one stream and 11 in the other — the group
	// state must merge across dictionaries, so 2 qualifies too.
	for _, v := range []int64{1, 2, 3} {
		if !got[rel.Int(v)] {
			t.Fatalf("group %d should qualify: got %v", v, got)
		}
	}
}

// TestCountMixedDictionaries: the counting kernel keys groups through
// R's column-0 dictionary until a batch brings another one, and must
// then keep one group per value across both: group 2's counters, and
// group 4's element outside S, seen before its dictionary changed.
func TestCountMixedDictionaries(t *testing.T) {
	r1 := rel.FromRows(2, []int64{1, 10}, []int64{1, 11}, []int64{2, 10}, []int64{4, 99})
	r2 := rel.FromRows(2, []int64{2, 11}, []int64{3, 10}, []int64{3, 11}, []int64{4, 10}, []int64{4, 11})
	s := rel.FromRows(1, []int64{10}, []int64{11})
	for _, tc := range []struct {
		sem  Semantics
		want []int64
		pure int
	}{{Containment, []int64{1, 2, 3, 4}, 4}, {Equality, []int64{1, 2, 3}, 3}} {
		held := 0
		c := Count(&concatBatches{cs: []rel.BatchCursor{r1.BatchScan(), r2.BatchScan()}}, s.BatchScan(), tc.sem, func(n int) { held += n })
		var got []string
		for _, id := range c.Qualified {
			got = append(got, c.Dict.Value(id).String())
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: qualified %v, want %v", tc.sem, got, tc.want)
		}
		if c.Rows != 9 || c.Divisor != 2 || c.Matched != 8 || c.MatchedGroups != 4 || c.Groups != 4 || c.Pure != tc.pure {
			t.Errorf("%s: counts %+v", tc.sem, c)
		}
		if held != 2+4 {
			t.Errorf("%s: charged %d, want 2 divisor values + 4 groups", tc.sem, held)
		}
	}
}

type concatBatches struct {
	cs []rel.BatchCursor
	i  int
}

func (c *concatBatches) NextBatch() (*rel.Batch, bool) {
	for c.i < len(c.cs) {
		if b, ok := c.cs[c.i].NextBatch(); ok {
			return b, true
		}
		c.i++
	}
	return nil, false
}
