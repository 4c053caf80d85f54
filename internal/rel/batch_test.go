package rel

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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

// TestAddBatchMatchesAdd: feeding a relation through AddBatch batches
// of its own dictionary must produce exactly the relation built by
// tuple-wise Add — same set, same insertion order, same dictionary —
// and report the same new-row count.
func TestAddBatchMatchesAdd(t *testing.T) {
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
		// Replay the raw tuple stream, duplicates included, not the
		// deduplicated relation.
		got := NewRelationSized(arity, len(tuples))
		gotAdded := 0
		cur := &ownBatcher{ts: tuples, arity: arity, dict: got.Interner()}
		for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
			gotAdded += got.AddBatch(b)
		}
		if gotAdded != wantAdded {
			t.Fatalf("trial %d: AddBatch accepted %d rows, Add %d", trial, gotAdded, wantAdded)
		}
		wt, gt := want.Tuples(), got.Tuples()
		if len(wt) != len(gt) {
			t.Fatalf("trial %d: %d tuples, want %d", trial, len(gt), len(wt))
		}
		for i := range wt {
			if !wt[i].Equal(gt[i]) {
				t.Fatalf("trial %d: tuple %d is %v, want %v", trial, i, gt[i], wt[i])
			}
		}
		if wd, gd := dictOrder(want.Interner()), dictOrder(got.Interner()); !wd.Equal(gd) {
			t.Fatalf("trial %d: dictionary order %v, want %v", trial, gd, wd)
		}
	}
}

// TestAddBatchRefusesForeignIDs: AddBatch takes IDs as they stand, so
// it takes a batch of the relation's own dictionary or of the one
// NewRelationOver based it on, as that stood — a store's, or a result's
// that is itself based on a store's — and panics with a rel: message
// on any other: a batch of another dictionary, of a base that grew
// since basing, of a dictionary based on the same base, of the store
// under a result's dictionary, and a batch that carries no dictionary.
func TestAddBatchRefusesForeignIDs(t *testing.T) {
	view := func(dict *Interner, vals ...Value) *Batch {
		col := make([]uint32, len(vals))
		for i, v := range vals {
			col[i] = dict.Intern(v)
		}
		var b Batch
		b.MakeView([][]uint32{col}, dict)
		b.SliceView([][]uint32{col}, 0, len(col))
		return &b
	}
	store := NewInterner()
	view(store, Int(1), Int(2), Str("tail"))
	type refused struct {
		name string
		run  func(base *Interner) *Batch
	}
	cases := []refused{
		{"another dictionary", func(*Interner) *Batch { return view(NewInterner(), Int(1)) }},
		{"a base grown since basing", func(base *Interner) *Batch { return view(base, Int(int64(100+base.Len()))) }},
		{"the base grown, an old ID", func(base *Interner) *Batch {
			base.Intern(Int(int64(100 + base.Len())))
			return view(base, Int(1))
		}},
		{"a sibling over the same base", func(base *Interner) *Batch {
			return view(NewRelationOver(1, base).Interner(), Str("x"))
		}},
		{"no dictionary", func(*Interner) *Batch {
			b := NewBatchSized(1, 4)
			b.SetLen(1)
			return b
		}},
	}
	for _, over := range []struct {
		name  string
		base  func() *Interner
		cases []refused
	}{
		{"store", func() *Interner { return store }, cases},
		{"result", func() *Interner {
			res := NewRelationOver(1, store)
			res.Add(T(Str("the result's own")))
			return res.Interner()
		}, append(cases, refused{"the store under it", func(*Interner) *Batch { return view(store, Int(1)) }})},
	} {
		for _, tc := range over.cases {
			t.Run(over.name+"/"+tc.name, func(t *testing.T) {
				base := over.base()
				r := NewRelationOver(1, base)
				if r.AddBatch(view(base, Int(2), Str("tail"))) != 2 || r.AddBatch(view(r.Interner(), Str("own"))) != 1 {
					t.Fatal("a batch of the base as it stood, or of the own dictionary, was refused")
				}
				b := tc.run(base)
				defer func() {
					p := recover()
					if msg, _ := p.(string); !strings.HasPrefix(msg, "rel: ") {
						t.Fatalf("panic %v, want a rel: message", p)
					}
					if r.Len() != 3 {
						t.Fatalf("the refused batch left %d rows, want 3", r.Len())
					}
				}()
				r.AddBatch(b)
			})
		}
	}
}

// ownBatcher packs tuples, duplicates included, into view batches of
// 17 rows over dict, interning the rows into it row by row as it goes.
type ownBatcher struct {
	ts    []Tuple
	arity int
	dict  *Interner
	view  Batch
}

func (r *ownBatcher) NextBatch() (*Batch, bool) {
	if len(r.ts) == 0 {
		return nil, false
	}
	n := min(17, len(r.ts))
	cols := make([][]uint32, r.arity)
	for _, tp := range r.ts[:n] {
		for k := range cols {
			cols[k] = append(cols[k], r.dict.Intern(tp[k]))
		}
	}
	r.view.MakeView(cols, r.dict)
	r.view.SliceView(cols, 0, n)
	r.ts = r.ts[n:]
	return &r.view, true
}

// TestAddBatchGrowingSourceAllocations: adding batches of the
// relation's own dictionary while it grows between batches — rows
// interned as they stream in — allocates in proportion to the rows,
// not once per batch in the size of the relation or its dictionary.
func TestAddBatchGrowingSourceAllocations(t *testing.T) {
	add := func(values int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := NewRelation(1)
		src := r.Interner()
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
			t.Fatalf("added %d rows, %d values, want %d", r.Len(), r.Interner().Len(), values)
		}
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const values = 1 << 15
	base, doubled := add(values), add(2*values)
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
