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
// exactly its tuples in insertion order, at several batch sizes.
func TestBatchScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, arity := range []int{0, 1, 3} {
		r := NewRelation(arity)
		for _, tp := range randomTuples(rng, 300, arity, 12) {
			r.Add(tp)
		}
		want := r.Tuples()
		for _, size := range []int{1, 7, 1024} {
			var got []Tuple
			cur := r.BatchScanSized(size)
			for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
				for row := 0; row < b.Len(); row++ {
					got = append(got, b.Row(nil, row))
				}
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
// count, whether the batches carry the relation's own dictionary
// (inserted as they stand), one foreign dictionary, or a different one
// from batch to batch.
func TestAddBatchMatchesAdd(t *testing.T) {
	sources := []struct {
		name string
		open func(tuples []Tuple, arity int, into *Relation) BatchCursor
	}{
		{"own dictionary", func(tuples []Tuple, arity int, into *Relation) BatchCursor {
			return &rotatingBatcher{ts: tuples, arity: arity, dicts: []*Interner{into.Interner()}}
		}},
		{"one dictionary", func(tuples []Tuple, arity int, _ *Relation) BatchCursor {
			return &rotatingBatcher{ts: tuples, arity: arity, dicts: []*Interner{NewInterner()}}
		}},
		{"rotating dictionaries", func(tuples []Tuple, arity int, _ *Relation) BatchCursor {
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
			cur := src.open(tuples, arity, got)
			for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
				gotAdded += got.AddBatch(b)
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
			if wd, gd := dictOrder(want.Interner()), dictOrder(got.Interner()); !wd.Equal(gd) {
				t.Fatalf("trial %d, %s: dictionary order %v, want %v", trial, src.name, gd, wd)
			}
		}
	}
}

// rotatingBatcher packs tuples, duplicates included, into view batches
// of 17 rows, the i-th over dictionary i mod len(dicts), interning the
// rows into it row by row as it goes.
type rotatingBatcher struct {
	ts      []Tuple
	arity   int
	dicts   []*Interner
	batches int
	view    Batch
}

func (r *rotatingBatcher) NextBatch() (*Batch, bool) {
	if len(r.ts) == 0 {
		return nil, false
	}
	n := min(17, len(r.ts))
	d := r.dicts[r.batches%len(r.dicts)]
	cols := make([][]uint32, r.arity)
	for _, tp := range r.ts[:n] {
		for k := range cols {
			cols[k] = append(cols[k], d.Intern(tp[k]))
		}
	}
	r.view.MakeView(cols, d)
	r.view.SliceView(cols, 0, n)
	r.ts = r.ts[n:]
	r.batches++
	return &r.view, true
}

// TestAddBatchGrowingSourceAllocations: adding batches of a
// dictionary that grows between batches — a result fed from a source
// still interning — allocates in proportion to the values translated,
// not one resized translation cache per batch.
func TestAddBatchGrowingSourceAllocations(t *testing.T) {
	translate := func(values int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		src := NewInterner()
		r := NewRelation(1)
		col := make([]uint32, 64)
		var b Batch
		for v := 0; v < values; v += 64 {
			for i := range col {
				col[i] = src.Intern(Int(int64(v + i)))
			}
			b.MakeView([][]uint32{col}, src)
			b.SliceView([][]uint32{col}, 0, len(col))
			r.AddBatch(&b)
		}
		runtime.ReadMemStats(&after)
		if r.Len() != values || r.Interner().Len() != values {
			t.Fatalf("translated %d rows, %d values, want %d", r.Len(), r.Interner().Len(), values)
		}
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const values = 1 << 15
	base, doubled := translate(values), translate(2*values)
	if doubled > 2.3*base {
		t.Errorf("%.0f bytes for %d values, %.0f for %d (×%.2f); want at most ×2.3", base, values, doubled, 2*values, doubled/base)
	}
}

// TestNewBatchSizedReset: a new batch has the asked shape, SetLen and
// Full follow its rows, and Reset empties it for refilling, overwriting
// the rows it drops exactly when poisonBatches is on; Reset panics on a
// view.
func TestNewBatchSizedReset(t *testing.T) {
	b := NewBatchSized(3, 4)
	if b.Arity() != 3 || b.Cap() != 4 || b.Len() != 0 || b.Full() {
		t.Fatalf("new batch: arity %d cap %d len %d full %v", b.Arity(), b.Cap(), b.Len(), b.Full())
	}
	for k := range 3 {
		col := b.WritableCol(k)
		for i := range col {
			col[i] = uint32(10*k + i)
		}
	}
	b.SetLen(4)
	if !b.Full() {
		t.Fatal("a batch of 4 rows at capacity 4 is not full")
	}
	kept := b.Col(2)
	b.Reset()
	if b.Len() != 0 || b.Arity() != 3 || b.Cap() != 4 {
		t.Fatalf("reset batch: arity %d cap %d len %d", b.Arity(), b.Cap(), b.Len())
	}
	for i, id := range kept {
		want := uint32(20 + i)
		if poisonBatches {
			want = ^uint32(0)
		}
		if id != want {
			t.Errorf("row %d reads %d after Reset, want %d", i, id, want)
		}
	}
	var v Batch
	v.MakeView([][]uint32{{1}}, nil)
	defer func() {
		if recover() == nil {
			t.Error("Reset on a view did not panic")
		}
	}()
	v.Reset()
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
