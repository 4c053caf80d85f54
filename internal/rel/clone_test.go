package rel

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// These tests are the regression suite of the Clone/Equal interner
// audit: a clone must not alias the original's interner (or dedup
// index, or ID columns) in any way that lets post-clone adds corrupt
// deduplication on either side. Clone copies the columns, the index
// and the dictionary, so every relation owns all three, and these
// tests pin that property against future rewrites (a tempting
// "optimization" would be to share the interner and copy only the
// index, which would break ID assignment for values added to only one
// side).

// TestCloneInternerIndependence: the clone gets its own dictionary
// object, and interning new values on one side does not leak IDs or
// entries into the other.
func TestCloneInternerIndependence(t *testing.T) {
	r := FromRows(2, []int64{1, 2}, []int64{3, 4})
	c := r.Clone()
	if r.Interner() == c.Interner() {
		t.Fatalf("clone shares the interner object")
	}
	// Diverge the dictionaries: each side sees a different new value
	// first, so shared state would assign conflicting IDs.
	r.Add(Ints(5, 6))
	c.Add(Ints(7, 8))
	if _, ok := c.Interner().ID(Int(5)); ok {
		t.Errorf("original's post-clone value leaked into the clone's dictionary")
	}
	if _, ok := r.Interner().ID(Int(7)); ok {
		t.Errorf("clone's post-clone value leaked into the original's dictionary")
	}
	// Dedup stays exact on both sides after the divergence.
	if r.Add(Ints(5, 6)) || c.Add(Ints(7, 8)) {
		t.Errorf("duplicate accepted after post-clone divergence")
	}
	if !r.Add(Ints(7, 8)) || !c.Add(Ints(5, 6)) {
		t.Errorf("fresh tuple rejected after post-clone divergence")
	}
	if !r.Equal(c) {
		t.Errorf("relations should have converged to the same set")
	}
}

// TestCloneDedupIntegrityUnderInterleavedAdds hammers both sides with
// the same add sequence in different orders: if any dedup state were
// shared, the differing interleavings would assign clashing IDs and
// either drop fresh tuples or accept duplicates.
func TestCloneDedupIntegrityUnderInterleavedAdds(t *testing.T) {
	r := NewRelation(2)
	for i := int64(0); i < 20; i++ {
		r.Add(Ints(i%5, i%7))
	}
	c := r.Clone()
	for i := int64(50); i < 80; i++ {
		r.Add(Ints(i, i%3))
		j := 79 - (i - 50)
		c.Add(Ints(j, j%3)) // same tuples, reverse order
	}
	if r.Len() != c.Len() {
		t.Fatalf("cardinality diverged: %d vs %d", r.Len(), c.Len())
	}
	if !r.Equal(c) || !c.Equal(r) {
		t.Fatalf("sets diverged under interleaved adds")
	}
	// Re-adding every tuple of one side into the other must be a no-op.
	for _, tup := range r.Tuples() {
		if c.Add(tup) {
			t.Fatalf("clone dedup missed %s", tup)
		}
	}
}

// TestDatabaseCloneInternerIndependence lifts the audit to the
// database level: every relation of the clone owns fresh dedup state,
// and post-clone adds to either database leave the other untouched —
// including Equal, which probes through each side's own dictionaries.
func TestDatabaseCloneInternerIndependence(t *testing.T) {
	d := NewDatabase(NewSchema(map[string]int{"R": 2, "S": 1}))
	d.AddInts("R", 1, 2)
	d.AddInts("S", 3)
	c := d.Clone()
	if d.Rel("R").Interner() == c.Rel("R").Interner() {
		t.Fatalf("cloned database shares a relation interner")
	}
	if !d.Equal(c) {
		t.Fatalf("clone not equal to original")
	}
	d.AddInts("R", 9, 9)
	if c.Rel("R").Contains(Ints(9, 9)) || c.Rel("R").Len() != 1 {
		t.Errorf("post-clone add to the original leaked into the clone")
	}
	if d.Equal(c) {
		t.Errorf("Equal ignored the post-clone divergence")
	}
	c.AddInts("R", 9, 9)
	if !d.Equal(c) {
		t.Errorf("Equal should hold again after converging; interner state corrupted?")
	}
	// Dedup still exact on both sides.
	if d.AddInts("R", 9, 9) || c.AddInts("R", 9, 9) {
		t.Errorf("duplicate accepted after clone divergence/convergence")
	}
}

// TestCloneTupleStorageIndependence: Add clones tuples, so mutating a
// tuple slice the caller kept must not corrupt either relation — and
// tuples yielded by one side never alias the other's storage.
func TestCloneTupleStorageIndependence(t *testing.T) {
	tup := Ints(1, 2)
	r := NewRelation(2)
	r.Add(tup)
	c := r.Clone()
	tup[0] = Int(99) // caller mutates its own slice
	if !r.Contains(Ints(1, 2)) || !c.Contains(Ints(1, 2)) {
		t.Errorf("caller mutation corrupted a relation")
	}
	rt, ct := r.Tuples()[0], c.Tuples()[0]
	if &rt[0] == &ct[0] {
		t.Errorf("clone aliases the original's tuple storage")
	}
}

// relationState is everything a reader can observe of a relation's
// storage: its ID columns, its dictionary in ID order, its cardinality.
type relationState struct {
	cols [][]uint32
	dict []Value
	n    int
}

func stateOf(r *Relation) relationState {
	cols, dict := r.IDColumns()
	st := relationState{cols: make([][]uint32, len(cols)), n: r.Len()}
	for k, col := range cols {
		st.cols[k] = slices.Clone(col)
	}
	for id := 0; id < dict.Len(); id++ {
		st.dict = append(st.dict, dict.Value(uint32(id)))
	}
	return st
}

// requireState fails unless r still has the recorded state, finds
// every tuple of members and none of strangers.
func requireState(t *testing.T, label string, r *Relation, want relationState, members, strangers []Tuple) {
	t.Helper()
	got := stateOf(r)
	if got.n != want.n || !slices.Equal(got.dict, want.dict) {
		t.Fatalf("%s: Len %d and %d dictionary entries, want %d and %d in the same order", label, got.n, len(got.dict), want.n, len(want.dict))
	}
	for k := range want.cols {
		if !slices.Equal(got.cols[k], want.cols[k]) {
			t.Fatalf("%s: ID column %d changed", label, k)
		}
	}
	for _, tup := range members {
		if !r.Contains(tup) {
			t.Fatalf("%s: lost %v", label, tup)
		}
	}
	for _, tup := range strangers {
		if r.Contains(tup) {
			t.Fatalf("%s: holds %v, which was added to the other side only", label, tup)
		}
	}
}

// TestCloneIsAColumnCopy: cloning a loaded relation allocates its
// columns, index and dictionary over again and nothing per tuple beyond
// that, and the two sides then share no storage — a run of Adds long
// enough to re-chain one side's index leaves the other's ID columns,
// dictionary order, Len and Contains exactly as they were.
func TestCloneIsAColumnCopy(t *testing.T) {
	const tuples = 100000
	d, err := ReadText(bytes.NewReader(integerFile(tuples)))
	if err != nil {
		t.Fatal(err)
	}
	r := d.Rel("R")
	var c *Relation
	perTuple := float64(allocatedBytes(func() { c = r.Clone() })) / tuples
	t.Logf("%.1f B allocated per cloned tuple", perTuple)
	if perTuple > 40 {
		t.Errorf("%.1f B allocated per cloned tuple, want at most 40", perTuple)
	}
	if !c.Equal(r) {
		t.Fatal("clone differs from its source")
	}

	loaded := r.Tuples()
	fresh := func(base int64) []Tuple {
		ts := make([]Tuple, 40000)
		for i := range ts {
			ts[i] = Ints(base+int64(i), base)
		}
		return ts
	}
	grow := func(side *Relation, ts []Tuple) {
		buckets := len(side.rows.heads)
		for _, tup := range ts {
			if !side.Add(tup) {
				t.Fatalf("fresh tuple %v rejected", tup)
			}
		}
		if len(side.rows.heads) == buckets {
			t.Fatalf("%d Adds did not re-chain an index of %d buckets", len(ts), buckets)
		}
	}

	toClone, toSource := fresh(-1000000), fresh(-2000000)
	sourceState := stateOf(r)
	grow(c, toClone)
	requireState(t, "source after the clone grew", r, sourceState, loaded, toClone)
	cloneState := stateOf(c)
	grow(r, toSource)
	requireState(t, "clone after the source grew", c, cloneState, append(loaded, toClone...), toSource)
}

// storageDump renders what a reader can see of a relation's first
// rows — the first entries of its dictionary in ID order, then the rows
// as BatchScan yields them — into bytes of its own, so a later
// comparison notices a stored string whose bytes were overwritten in
// place.
func storageDump(r *Relation, entries, rows int) string {
	var out strings.Builder
	for id := 0; id < entries; id++ {
		fmt.Fprintf(&out, "%d=%#v\n", id, r.Interner().Value(uint32(id)))
	}
	for _, row := range batchScanRows(r)[:rows] {
		fmt.Fprintln(&out, row)
	}
	return out.String()
}

// addTextRows appends n fresh binary rows of strings to r the way the
// text loader does, through internText and addIDs, and checks that the
// dictionary hands out the next free IDs for them.
func addTextRows(t *testing.T, r *Relation, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		next := uint32(r.intern.Len())
		ids := r.idbuf
		for k := range ids {
			ids[k] = r.intern.internText([]byte(fmt.Sprintf("%s-%05d-%d", prefix, i, k)))
			if ids[k] != next+uint32(k) {
				t.Fatalf("%s row %d: new string interned as %d, want the next free ID %d", prefix, i, ids[k], next+uint32(k))
			}
		}
		if !r.addIDs(ids) {
			t.Fatalf("%s row %d rejected as a duplicate", prefix, i)
		}
	}
}

// requireTextRows checks that the rows addTextRows appended after the
// first base ones read back as written, and that the other side's are
// absent.
func requireTextRows(t *testing.T, r *Relation, base int, prefix, others string, n int) {
	t.Helper()
	if r.Len() != base+n {
		t.Fatalf("%s side holds %d rows, want %d", prefix, r.Len(), base+n)
	}
	for i := 0; i < n; i++ {
		want := Strs(fmt.Sprintf("%s-%05d-0", prefix, i), fmt.Sprintf("%s-%05d-1", prefix, i))
		if got := r.At(base + i); !got.Equal(want) {
			t.Fatalf("%s side row %d reads %v, want %v", prefix, base+i, got, want)
		}
		if _, ok := r.intern.ID(Str(fmt.Sprintf("%s-%05d-0", others, i))); ok {
			t.Fatalf("%s side sees a string interned on the %s side only", prefix, others)
		}
	}
}

// publishedStringDatabase loads a string file into an epoch writer,
// adds a few rows the way the text loader does so that the relation's
// dictionary ends in a part-full chunk of strings, and publishes.
func publishedStringDatabase(t *testing.T, lines int) *Epoch {
	t.Helper()
	d, err := ReadText(bytes.NewReader(stringFile(lines)))
	if err != nil {
		t.Fatal(err)
	}
	w := EpochFromStore(d)
	addTextRows(t, w.Mutable("Likes"), "published", 100)
	w.Publish()
	return w
}

// requirePartFullChunk fails unless r's dictionary has room left in a
// chunk it has started: the state in which a clone that shared the
// chunk would append into it.
func requirePartFullChunk(t *testing.T, r *Relation) {
	t.Helper()
	if c := &r.intern.chunk; c.Len() == 0 || c.Len() == c.Cap() {
		t.Fatalf("dictionary's last chunk holds %d of %d bytes, want it part full", c.Len(), c.Cap())
	}
}

// TestCloneSharesNoWritableStorage: a dictionary loaded from text ends
// in a part-full chunk of strings. Its clone must not append there:
// after ten thousand new strings on each side, through every way a
// relation is cloned, every string either side held or has added since
// still reads as written.
func TestCloneSharesNoWritableStorage(t *testing.T) {
	const added = 10000
	load := func() *Database {
		d, err := ReadText(bytes.NewReader(stringFile(3000)))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for name, clone := range map[string]func() (source, copy *Relation){
		"Relation.Clone": func() (*Relation, *Relation) { r := load().Rel("Likes"); return r, r.Clone() },
		"Database.Clone": func() (*Relation, *Relation) { d := load(); return d.Rel("Likes"), d.Clone().Rel("Likes") },
		"Epoch.Mutable": func() (*Relation, *Relation) {
			w := publishedStringDatabase(t, 3000)
			return w.Snapshot().Rel("Likes"), w.Mutable("Likes")
		},
	} {
		t.Run(name, func(t *testing.T) {
			source, copy := clone()
			requirePartFullChunk(t, source)
			rows, entries := source.Len(), source.intern.Len()
			before := storageDump(source, entries, rows)
			if copy.Len() != rows || copy.intern.Len() != entries || storageDump(copy, entries, rows) != before {
				t.Fatal("clone differs from its source")
			}
			addTextRows(t, copy, "clone", added)
			if name != "Epoch.Mutable" { // a published relation is never written
				addTextRows(t, source, "source", added)
				requireTextRows(t, source, rows, "source", "clone", added)
			} else if source.Len() != rows || source.intern.Len() != entries {
				t.Fatal("the published relation grew under the writer's inserts")
			}
			requireTextRows(t, copy, rows, "clone", "source", added)
			for side, r := range map[string]*Relation{"source": source, "clone": copy} {
				if storageDump(r, entries, rows) != before {
					t.Fatalf("%s: what was loaded before the clone no longer reads as it did", side)
				}
			}
		})
	}
}

// TestPublishedDictionaryIsNeverWritten: readers dump a published
// snapshot's dictionary and rows over and over while the writer clones
// the relation and loads ten thousand new strings into its copy; the
// dump never changes. Under -race this is also the check that the
// writer's chunk is not the snapshot's.
func TestPublishedDictionaryIsNeverWritten(t *testing.T) {
	w := publishedStringDatabase(t, 600)
	snap := w.Snapshot()
	requirePartFullChunk(t, snap.Rel("Likes"))
	dump := func() string {
		r := snap.Rel("Likes")
		return storageDump(r, r.Interner().Len(), r.Len())
	}
	before := dump()

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if dump() != before {
					t.Error("published snapshot changed while the writer was interning")
					return
				}
				if id, ok := snap.Dict("Likes").ID(Str("beer-000007")); !ok || snap.Dict("Likes").Value(id) != Str("beer-000007") {
					t.Error("published dictionary lost a value")
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	addTextRows(t, w.Mutable("Likes"), "writer", 10000)
	next := w.Publish()
	close(done)
	wg.Wait()
	if dump() != before {
		t.Error("the earlier snapshot changed after the next publish")
	}
	requireTextRows(t, next.Rel("Likes"), snap.Rel("Likes").Len(), "writer", "nobody", 10000)
}
