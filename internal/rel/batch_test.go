package rel

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// randomTuples draws n tuples of the given arity over a small domain,
// so duplicates occur.
func randomTuples(rng *rand.Rand, n, arity, domain int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		t := make(Tuple, arity)
		for k := range t {
			if rng.Intn(4) == 0 {
				t[k] = Str(fmt.Sprintf("s%d", rng.Intn(domain)))
			} else {
				t[k] = Int(int64(rng.Intn(domain)))
			}
		}
		out[i] = t
	}
	return out
}

// TestBatchScanRoundTrip: decoding a relation's batch scan must yield
// exactly its tuples in insertion order, at several batch sizes,
// without touching the pool (scan batches are views).
func TestBatchScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, arity := range []int{0, 1, 3} {
		r := NewRelation(arity)
		for _, tp := range randomTuples(rng, 300, arity, 12) {
			r.Add(tp)
		}
		want := r.Tuples()
		for _, size := range []int{1, 7, 1024} {
			live, _, _ := BatchPoolStats()
			var got []Tuple
			cur := r.BatchScanSized(size)
			for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
				for row := 0; row < b.Len(); row++ {
					got = append(got, b.Row(nil, row))
				}
				b.Release()
			}
			if after, _, _ := BatchPoolStats(); after != live {
				t.Fatalf("arity=%d size=%d: view batches leaked into the pool accounting", arity, size)
			}
			if len(got) != len(want) {
				t.Fatalf("arity=%d size=%d: %d rows, want %d", arity, size, len(got), len(want))
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("arity=%d size=%d: row %d is %v, want %v", arity, size, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAddBatchMatchesAdd: feeding a relation through AddBatch must
// produce exactly the relation built by tuple-wise Add — same set, same
// insertion order, same dictionary — and report the same new-row
// count, whether the batches carry one foreign dictionary or a
// different one in every column, rotated from batch to batch: a join
// output carries each side's dictionary through, and a shard view's
// scan changes dictionaries at run boundaries.
func TestAddBatchMatchesAdd(t *testing.T) {
	sources := []struct {
		name string
		open func(tuples []Tuple, arity int) BatchCursor
	}{
		{"one dictionary", func(tuples []Tuple, arity int) BatchCursor {
			return &rotatingBatcher{ts: tuples, arity: arity, dicts: []*Interner{NewInterner()}}
		}},
		{"rotating dictionaries", func(tuples []Tuple, arity int) BatchCursor {
			return &rotatingBatcher{ts: tuples, arity: arity, dicts: []*Interner{NewInterner(), NewInterner(), NewInterner()}}
		}},
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		arity := rng.Intn(4)
		tuples := randomTuples(rng, 200, arity, 6)
		want := NewRelation(arity)
		wantAdded := 0
		for _, tp := range tuples {
			if want.Add(tp) {
				wantAdded++
			}
		}
		for _, src := range sources {
			// Replay the raw tuple stream, duplicates included, not the
			// deduplicated relation.
			got := NewRelationSized(arity, len(tuples))
			gotAdded := 0
			cur := src.open(tuples, arity)
			for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
				gotAdded += got.AddBatch(b)
				b.Release()
			}
			if gotAdded != wantAdded {
				t.Fatalf("trial %d, %s: AddBatch accepted %d rows, Add %d", trial, src.name, gotAdded, wantAdded)
			}
			wt, gt := want.Tuples(), got.Tuples()
			if len(wt) != len(gt) {
				t.Fatalf("trial %d, %s: %d tuples, want %d", trial, src.name, len(gt), len(wt))
			}
			for i := range wt {
				if !wt[i].Equal(gt[i]) {
					t.Fatalf("trial %d, %s: tuple %d is %v, want %v", trial, src.name, i, gt[i], wt[i])
				}
			}
			if wd, gd := want.Interner(), got.Interner(); !Tuple(wd.vals).Equal(Tuple(gd.vals)) {
				t.Fatalf("trial %d, %s: dictionary order %v, want %v", trial, src.name, gd.vals, wd.vals)
			}
		}
	}
}

// rotatingBatcher packs tuples, duplicates included, into pooled
// batches of 17 rows in which column k of the i-th batch carries
// dictionary (i+k) mod len(dicts): with three dictionaries no two
// columns of a batch share one, and every column changes dictionary at
// every batch boundary; with one, every batch carries the same.
type rotatingBatcher struct {
	ts      []Tuple
	arity   int
	dicts   []*Interner
	batches int
}

func (r *rotatingBatcher) NextBatch() (*Batch, bool) {
	if len(r.ts) == 0 {
		return nil, false
	}
	n := min(17, len(r.ts))
	b := NewBatchSized(r.arity, n)
	for k := 0; k < r.arity; k++ {
		d := r.dicts[(r.batches+k)%len(r.dicts)]
		b.SetDict(k, d)
		col := b.WritableCol(k)
		for row, tp := range r.ts[:n] {
			col[row] = d.Intern(tp[k])
		}
	}
	b.SetLen(n)
	r.ts = r.ts[n:]
	r.batches++
	return b, true
}

// TestIDMap: interning and read-only lookup across dictionaries, with
// the negative cache.
func TestIDMap(t *testing.T) {
	src, dst := NewInterner(), NewInterner()
	a, b := src.Intern(Int(1)), src.Intern(Str("x"))
	dst.Intern(Str("x"))
	x := NewIDMap(dst)
	if id, ok := x.Lookup(src, b); !ok || dst.Value(id) != Str("x") {
		t.Fatalf("Lookup of shared value failed: id=%d ok=%v", id, ok)
	}
	if _, ok := x.Lookup(src, a); ok {
		t.Fatal("Lookup found a value absent from the target")
	}
	if dst.Len() != 1 {
		t.Fatalf("Lookup mutated the target dictionary: %d values", dst.Len())
	}
	id := x.Intern(src, a)
	if dst.Value(id) != Int(1) || dst.Len() != 2 {
		t.Fatalf("Intern failed: value %v, len %d", dst.Value(id), dst.Len())
	}
	// The identity fast path.
	if got, ok := x.Lookup(dst, id); !ok || got != id {
		t.Fatal("identity lookup failed")
	}
}

// TestIDMapGrowingSourceAllocations: translating out of a dictionary
// that grows between batches — γ interns each count into its output
// dictionary as it emits — allocates in proportion to the values
// translated, not one resized cache per batch.
func TestIDMapGrowingSourceAllocations(t *testing.T) {
	translate := func(values int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		src := NewInterner()
		x := NewIDMap(NewInterner())
		for v := 0; v < values; v += 64 {
			for i := v; i < v+64; i++ {
				src.Intern(Int(int64(i)))
			}
			for i := v; i < v+64; i++ {
				x.Intern(src, uint32(i))
			}
		}
		runtime.ReadMemStats(&after)
		if x.To().Len() != values {
			t.Fatalf("translated %d values, want %d", x.To().Len(), values)
		}
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const values = 1 << 15
	base, doubled := translate(values), translate(2*values)
	if doubled > 2.3*base {
		t.Errorf("%.0f bytes for %d values, %.0f for %d (×%.2f); want at most ×2.3", base, values, doubled, 2*values, doubled/base)
	}
}

// TestBatchPoolRecycles: released batches come back from the pool
// reshaped, and view batches never enter it.
func TestBatchPoolRecycles(t *testing.T) {
	b := NewBatch(3)
	if b.Arity() != 3 || b.Cap() != BatchCap || b.Len() != 0 {
		t.Fatalf("fresh batch: arity %d cap %d len %d", b.Arity(), b.Cap(), b.Len())
	}
	b.Release()
	c := NewBatchSized(5, 64)
	if c.Arity() != 5 || c.Cap() != 64 {
		t.Fatalf("reshaped batch: arity %d cap %d", c.Arity(), c.Cap())
	}
	if c.Full() {
		t.Fatal("empty batch reports full")
	}
	c.Release()
}

// TestRelationSizedEquivalent: a pre-sized relation behaves exactly
// like a grown one.
func TestRelationSizedEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tuples := randomTuples(rng, 300, 2, 8)
	grown, sized := NewRelation(2), NewRelationSized(2, len(tuples))
	for _, tp := range tuples {
		if grown.Add(tp) != sized.Add(tp) {
			t.Fatal("Add disagrees between sized and grown relations")
		}
	}
	gt, st := grown.Tuples(), sized.Tuples()
	for i := range gt {
		if !gt[i].Equal(st[i]) {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

// TestArenaCloneIsolation: tuples decoded together share one arena, so
// an append through a returned tuple must reallocate rather than
// scribble over the tuple decoded next to it.
func TestArenaCloneIsolation(t *testing.T) {
	r := NewRelation(2)
	r.Add(Ints(1, 2))
	r.Add(Ints(3, 4))
	ts := r.Tuples()
	_ = append(ts[0], Int(99)) // must copy, not overwrite ts[1]'s storage
	if !ts[1].Equal(Ints(3, 4)) || !r.Tuples()[1].Equal(Ints(3, 4)) {
		t.Fatal("append through a returned tuple corrupted the next tuple")
	}
	if !r.Contains(Ints(3, 4)) {
		t.Fatal("index lost a tuple after aliased append")
	}
}
