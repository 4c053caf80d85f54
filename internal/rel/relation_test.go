package rel

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestRelationAddDedup(t *testing.T) {
	r := NewRelation(2)
	if !r.Add(Ints(1, 2)) {
		t.Error("first Add should report new")
	}
	if r.Add(Ints(1, 2)) {
		t.Error("duplicate Add should report old")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(Ints(1, 2)) || r.Contains(Ints(2, 1)) {
		t.Error("Contains broken")
	}
}

func TestRelationArityChecks(t *testing.T) {
	r := NewRelation(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add with wrong arity should panic")
			}
		}()
		r.Add(Ints(1))
	}()
	if r.Contains(Ints(1)) {
		t.Error("Contains with wrong arity should be false")
	}
}

func TestRelationZeroArity(t *testing.T) {
	truthy := FromTuples(0, Tuple{})
	falsy := NewRelation(0)
	if truthy.Len() != 1 || falsy.Len() != 0 {
		t.Error("arity-0 relations broken")
	}
	if !truthy.Contains(Tuple{}) {
		t.Error("truthy should contain ()")
	}
}

func TestRelationSetOps(t *testing.T) {
	r := FromRows(2, []int64{1, 2}, []int64{3, 4})
	s := FromRows(2, []int64{3, 4}, []int64{5, 6})
	if got := r.Union(s); got.Len() != 3 {
		t.Errorf("Union size = %d", got.Len())
	}
	if got := r.Diff(s); got.Len() != 1 || !got.Contains(Ints(1, 2)) {
		t.Errorf("Diff = %v", got)
	}
	if got := r.Intersect(s); got.Len() != 1 || !got.Contains(Ints(3, 4)) {
		t.Errorf("Intersect = %v", got)
	}
}

func TestRelationProject(t *testing.T) {
	r := FromRows(3, []int64{1, 2, 3}, []int64{1, 2, 4})
	p := r.Project(1, 2)
	if p.Len() != 1 || !p.Contains(Ints(1, 2)) {
		t.Errorf("projection should dedup: %v", p)
	}
	q := r.Project(3, 3, 1)
	if q.Arity() != 3 || !q.Contains(Ints(3, 3, 1)) || !q.Contains(Ints(4, 4, 1)) {
		t.Errorf("repeat/reorder projection broken: %v", q)
	}
	empty := r.Project()
	if empty.Arity() != 0 || empty.Len() != 1 {
		t.Errorf("empty projection of nonempty relation should be {()}: %v", empty)
	}
}

func TestRelationProjectOutOfRange(t *testing.T) {
	r := FromRows(2, []int64{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range projection should panic")
		}
	}()
	r.Project(3)
}

func TestRelationEqualCloneValues(t *testing.T) {
	r := FromRows(2, []int64{1, 2}, []int64{3, 4})
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone not equal")
	}
	c.Add(Ints(5, 6))
	if r.Equal(c) || r.Len() != 2 {
		t.Error("clone shares state")
	}
	vals := r.Values()
	if len(vals) != 4 || !vals[0].Equal(Int(1)) || !vals[3].Equal(Int(4)) {
		t.Errorf("Values = %v", vals)
	}
}

func TestRelationSortedDeterministic(t *testing.T) {
	r := FromRows(2, []int64{3, 4}, []int64{1, 2}, []int64{2, 9})
	s := r.Sorted()
	if !s[0].Equal(Ints(1, 2)) || !s[1].Equal(Ints(2, 9)) || !s[2].Equal(Ints(3, 4)) {
		t.Errorf("Sorted = %v", s)
	}
	if !strings.Contains(r.String(), "(1, 2)") {
		t.Errorf("String = %q", r.String())
	}
}

// TestRelationSortInPlace: Sort leaves the rows of Sorted in the order
// of Sorted, over a dictionary whose ID order is not value order, and
// the re-chained index still finds every row, rejects it again, and
// takes new rows.
func TestRelationSortInPlace(t *testing.T) {
	r := NewRelation(2)
	for i := int64(0); i < 3000; i++ {
		r.Add(Tuple{Int((i * 7919) % 1009), Str(string(rune('a' + i%26)))})
	}
	r.Add(Tuple{Str("z"), Int(-1)})
	want, buckets := r.Sorted(), len(r.rows.heads)
	r.Sort()
	if len(r.rows.heads) != buckets {
		t.Errorf("Sort changed the bucket count %d to %d", buckets, len(r.rows.heads))
	}
	got := r.Tuples()
	if len(got) != len(want) {
		t.Fatalf("%d rows after Sort, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d after Sort is %v, want %v", i, got[i], want[i])
		}
		if !r.Contains(want[i]) || r.Add(want[i]) {
			t.Fatalf("row %v is not found after Sort", want[i])
		}
	}
	if !r.Add(Ints(5000, 5000)) || r.At(r.Len()-1).Cmp(Ints(5000, 5000)) != 0 || r.Len() != len(want)+1 {
		t.Errorf("Add after Sort did not append a new row")
	}
}

func TestRelationArityMismatchPanics(t *testing.T) {
	r := NewRelation(2)
	s := NewRelation(3)
	defer func() {
		if recover() == nil {
			t.Error("Union across arities should panic")
		}
	}()
	r.Union(s)
}

// Property: union is commutative and idempotent; difference removes
// exactly the intersection.
func TestRelationSetAlgebraProperties(t *testing.T) {
	mk := func(rows [][2]int64) *Relation {
		r := NewRelation(2)
		for _, row := range rows {
			r.Add(Ints(row[0]%8, row[1]%8))
		}
		return r
	}
	comm := func(a, b [][2]int64) bool {
		ra, rb := mk(a), mk(b)
		return ra.Union(rb).Equal(rb.Union(ra))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("union commutativity: %v", err)
	}
	idem := func(a [][2]int64) bool {
		ra := mk(a)
		return ra.Union(ra).Equal(ra)
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Errorf("union idempotence: %v", err)
	}
	excl := func(a, b [][2]int64) bool {
		ra, rb := mk(a), mk(b)
		diff := ra.Diff(rb)
		return diff.Intersect(rb).Len() == 0 &&
			diff.Union(ra.Intersect(rb)).Equal(ra)
	}
	if err := quick.Check(excl, nil); err != nil {
		t.Errorf("difference laws: %v", err)
	}
}

// TestRelationCursor checks the decoding iterator: insertion order,
// exhaustion, a second cursor rescanning from the start, and the empty
// relation.
func TestRelationCursor(t *testing.T) {
	r := FromTuples(2, Ints(1, 2), Ints(3, 4), Ints(1, 2), Ints(5, 6))
	c := r.Cursor()
	var got []Tuple
	for tu, ok := c.Next(); ok; tu, ok = c.Next() {
		got = append(got, tu)
	}
	want := r.Tuples()
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("cursor tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, ok := c.Next(); ok {
		t.Error("exhausted cursor yielded a tuple")
	}
	if tu, ok := r.Cursor().Next(); !ok || !tu.Equal(Ints(1, 2)) {
		t.Errorf("a second cursor's first tuple = %v, %v", tu, ok)
	}
	if _, ok := NewRelation(3).Cursor().Next(); ok {
		t.Error("cursor over empty relation yielded a tuple")
	}
}

// TestRelationIndexGrowth drives the dedup index through every
// doubling, with Reserve calls landing mid-load, and checks that no
// stored tuple is ever lost from it: each is found again, re-adding it
// is rejected, and a relation grown step by step equals one sized up
// front, position for position.
func TestRelationIndexGrowth(t *testing.T) {
	const n = 5000
	grown, sized := NewRelation(2), NewRelationSized(2, n)
	for i := 0; i < n; i++ {
		tup := Ints(int64(i%71), int64(i))
		if i == 3 || i == 100 || i == 4097 {
			grown.Reserve(i)
		}
		if !grown.Add(tup) || !sized.Add(tup) {
			t.Fatalf("tuple %d rejected as a duplicate", i)
		}
	}
	for i := 0; i < n; i++ {
		tup := Ints(int64(i%71), int64(i))
		if !grown.Contains(tup) || grown.Add(tup) || sized.Add(tup) {
			t.Fatalf("tuple %d lost from the index", i)
		}
		if !grown.At(i).Equal(sized.At(i)) {
			t.Fatalf("position %d: %v vs %v", i, grown.At(i), sized.At(i))
		}
	}
	hit := make([]bool, n)
	if grown.ContainsBatch(grown.rows.cols, n, hit); slices.Contains(hit, false) {
		t.Fatalf("IDs of tuple %d not found", slices.Index(hit, false))
	}
	if grown.Contains(Ints(0, n)) || grown.Len() != n {
		t.Errorf("Len = %d, spurious member = %v", grown.Len(), grown.Contains(Ints(0, n)))
	}
	if len(grown.rows.heads) < n || len(grown.rows.heads)&(len(grown.rows.heads)-1) != 0 {
		t.Errorf("index has %d buckets for %d tuples", len(grown.rows.heads), n)
	}
}

// TestRelationAddAllocations pins Add into reserved storage at zero
// allocations per tuple: what a load allocates is the relation, its
// reservation and the dictionary of a fixed value domain, whatever the
// number of tuples.
func TestRelationAddAllocations(t *testing.T) {
	load := func(n int) float64 {
		tuples := make([]Tuple, n)
		for i := range tuples {
			tuples[i] = Ints(int64(i%100), int64(i/100%100), int64(i/10000))
		}
		return testing.AllocsPerRun(5, func() {
			r := NewRelationSized(3, n)
			for _, tup := range tuples {
				r.Add(tup)
			}
			if r.Len() != n {
				t.Fatalf("Len = %d, want %d", r.Len(), n)
			}
		})
	}
	if small, large := load(20000), load(40000); large != small {
		t.Errorf("Add allocates per tuple: %v allocs for 20000 tuples, %v for 40000", small, large)
	}
}

// allocatedBytes reports how many heap bytes fn allocated: the least
// of three runs, since TotalAlloc also counts what other goroutines
// (the race detector's, the test runner's) allocate meanwhile, and that
// only ever adds. Every caller's fn builds its result afresh, so it can
// run more than once.
func allocatedBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRelationAddFootprint holds what a stored tuple costs: an arity-2
// tuple added into reserved storage is two column IDs, a chain link and
// its share of the bucket array — a row copy beside the columns would
// be some 90 bytes more.
func TestRelationAddFootprint(t *testing.T) {
	const n = 100000
	var r *Relation
	tup := make(Tuple, 2)
	got := allocatedBytes(func() {
		r = NewRelationSized(2, n)
		for i := 0; i < n; i++ {
			tup[0], tup[1] = Int(int64(i%1000)), Int(int64(i/1000))
			r.Add(tup)
		}
	})
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	perTuple := float64(got) / n
	t.Logf("%.1f B allocated per stored tuple", perTuple)
	if perTuple > 40 {
		t.Errorf("%.1f B allocated per stored tuple, want at most 40", perTuple)
	}
}
