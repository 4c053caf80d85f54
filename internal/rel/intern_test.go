package rel

import (
	"sort"
	"testing"
)

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Int(7))
	b := in.Intern(Str("7"))
	c := in.Intern(Int(7))
	if a != c {
		t.Errorf("re-interning changed ID: %d vs %d", a, c)
	}
	if a == b {
		t.Error("Int(7) and Str(\"7\") must intern to different IDs")
	}
	if a != 0 || b != 1 {
		t.Errorf("IDs not dense in first-intern order: a=%d b=%d", a, b)
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if !in.Value(a).Equal(Int(7)) || !in.Value(b).Equal(Str("7")) {
		t.Error("Value does not invert Intern")
	}
	if _, ok := in.ID(Int(99)); ok {
		t.Error("ID of unseen value reported ok")
	}
	if id, ok := in.ID(Str("7")); !ok || id != b {
		t.Error("ID lookup of interned string broken")
	}
}

func TestInternerManyValues(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 1000; i++ {
		if got := in.Intern(Int(int64(i))); got != uint32(i) {
			t.Fatalf("Intern(%d) = %d", i, got)
		}
	}
	for i := 999; i >= 0; i-- {
		if id, ok := in.ID(Int(int64(i))); !ok || id != uint32(i) {
			t.Fatalf("ID(%d) = %d, %v", i, id, ok)
		}
		if v := in.Value(uint32(i)); v != Int(int64(i)) {
			t.Fatalf("Value(%d) = %v after growth", i, v)
		}
	}
	// The dictionary doubles when full, so filling it copies it about
	// once over, not the five times append's 1.25x steps would.
	if got := cap(in.vals); got != 1024 {
		t.Errorf("dictionary of 1000 values has capacity %d, want 1024", got)
	}
}

// The relation index must key on value identity, not on hash buckets
// alone: tuples whose IDs collide in the bucket hash must still be
// distinguished.
func TestRelationDedupMixedKinds(t *testing.T) {
	r := NewRelation(2)
	tuples := []Tuple{
		T(Int(1), Str("1")),
		T(Str("1"), Int(1)),
		T(Int(1), Int(1)),
		T(Str("1"), Str("1")),
	}
	for _, tp := range tuples {
		if !r.Add(tp) {
			t.Fatalf("tuple %v wrongly reported duplicate", tp)
		}
	}
	for _, tp := range tuples {
		if r.Add(tp) {
			t.Fatalf("tuple %v wrongly reported new on second Add", tp)
		}
		if !r.Contains(tp) {
			t.Fatalf("Contains(%v) = false", tp)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
}

func TestRelationContainsUnseenValue(t *testing.T) {
	r := FromRows(2, []int64{1, 2})
	if r.Contains(Ints(1, 3)) {
		t.Error("Contains with a never-seen value must be false")
	}
}

func TestRelationInternerExposed(t *testing.T) {
	r := FromRows(2, []int64{10, 20}, []int64{10, 30})
	in := r.Interner()
	if in.Len() != 3 {
		t.Fatalf("interner holds %d values, want 3", in.Len())
	}
	var got []int64
	for id := 0; id < in.Len(); id++ {
		got = append(got, in.Value(uint32(id)).AsInt())
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		// first-occurrence order here is 10, 20, 30 — already sorted
		t.Errorf("IDs not in first-occurrence order: %v", got)
	}
}

// Tuples returns a defensive view: reordering or truncating the
// returned slice must not corrupt the relation's index.
func TestTuplesDefensiveView(t *testing.T) {
	r := FromRows(2, []int64{1, 2}, []int64{3, 4}, []int64{5, 6})
	ts := r.Tuples()
	ts[0], ts[2] = ts[2], ts[0]
	ts = ts[:1]
	_ = ts
	if !r.Contains(Ints(1, 2)) || !r.Contains(Ints(5, 6)) || r.Len() != 3 {
		t.Error("mutating the slice returned by Tuples corrupted the relation")
	}
	again := r.Tuples()
	if !again[0].Equal(Ints(1, 2)) {
		t.Errorf("insertion order lost: %v", again)
	}
}
