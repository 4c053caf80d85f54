package division

import (
	"fmt"
	"strings"
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

// TestDivideShardBatchesMixedDictionaries: the hash-division kernel
// indexes groups and elements by the IDs of one dictionary, so a
// dividend stream whose batches switch dictionaries — two standalone
// relations back to back — is refused with a "division: " panic rather
// than read as if the IDs meant the same values. No production cursor
// produces such a stream: a store's relations share its dictionary.
func TestDivideShardBatchesMixedDictionaries(t *testing.T) {
	r1 := rel.FromRows(2, []int64{1, 10}, []int64{1, 11}, []int64{2, 10})
	r2 := rel.FromRows(2, []int64{2, 11}, []int64{3, 10}, []int64{3, 11})
	dt := NewDivisorTable(rel.FromRows(1, []int64{10}, []int64{11}))
	for _, sem := range []Semantics{Containment, Equality} {
		mustPanicDivision(t, "DivideShardBatches "+sem.String(), func() {
			dt.DivideShardBatches(&concatBatches{cs: []rel.BatchCursor{r1.BatchScan(), r2.BatchScan()}}, sem)
		})
	}
}

// TestCountMixedDictionaries: the counting kernel keys groups by R's
// IDs, so an R stream whose batches switch dictionaries is refused with
// a "division: " panic, under both semantics. S may come from another
// dictionary than R: it is read into a set of values.
func TestCountMixedDictionaries(t *testing.T) {
	r1 := rel.FromRows(2, []int64{1, 10}, []int64{1, 11}, []int64{2, 10}, []int64{4, 99})
	r2 := rel.FromRows(2, []int64{2, 11}, []int64{3, 10}, []int64{3, 11}, []int64{4, 10}, []int64{4, 11})
	s := rel.FromRows(1, []int64{10}, []int64{11})
	for _, sem := range []Semantics{Containment, Equality} {
		mustPanicDivision(t, "Count "+sem.String(), func() {
			Count(&concatBatches{cs: []rel.BatchCursor{r1.BatchScan(), r2.BatchScan()}}, s.BatchScan(), sem, func(int) {})
		})
		c := Count(r1.BatchScan(), s.BatchScan(), sem, func(int) {})
		if len(c.Qualified) != 1 || !c.Dict.Value(c.Qualified[0]).Equal(rel.Int(1)) {
			t.Errorf("%s over one dictionary: qualified %v, want group 1", sem, c.Qualified)
		}
	}
}

// mustPanicDivision fails unless f panics with a "division: " message.
func mustPanicDivision(t *testing.T, label string, f func()) {
	t.Helper()
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}()
	if !strings.HasPrefix(msg, "division: ") {
		t.Errorf("%s: panic %q, want a \"division: \" panic", label, msg)
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
