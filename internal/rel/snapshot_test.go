package rel

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func epochSchema() Schema {
	return NewSchema(map[string]int{"R": 2, "S": 1})
}

// TestEpochPublishVisibility pins the core epoch semantics: writes
// accumulate privately, Publish makes them visible atomically, and the
// epoch and version counters advance exactly when state does.
func TestEpochPublishVisibility(t *testing.T) {
	w := NewEpoch(epochSchema())
	s0 := w.Snapshot()
	if s0 == nil || s0.Epoch() != 0 || s0.Size() != 0 {
		t.Fatalf("fresh epoch writer: snapshot %v", s0)
	}
	w.AddInts("R", 1, 2)
	w.AddInts("S", 7)
	if w.Snapshot() != s0 || s0.Size() != 0 {
		t.Fatalf("unpublished writes leaked into the snapshot")
	}
	if w.Size() != 2 || !w.View("R").Contains(Ints(1, 2)) {
		t.Fatalf("writer does not see its own writes")
	}
	if !w.Dirty("R") || !w.Dirty("S") {
		t.Fatalf("written relations not dirty")
	}
	s1 := w.Publish()
	if s1.Epoch() != 1 || w.Snapshot() != s1 {
		t.Fatalf("publish did not advance the snapshot (epoch %d)", s1.Epoch())
	}
	if s1.Size() != 2 || !s1.Rel("R").Contains(Ints(1, 2)) || !s1.Rel("S").Contains(Ints(7)) {
		t.Fatalf("published snapshot missing writes")
	}
	if s1.Version("R") != 1 || s1.Version("S") != 1 {
		t.Fatalf("versions not bumped: R=%d S=%d", s1.Version("R"), s1.Version("S"))
	}
	if w.Dirty("R") {
		t.Fatalf("relation still dirty after publish")
	}
	// An epoch with writes to R only: S's version and pointer must not
	// move (structural sharing), R's must.
	w.AddInts("R", 3, 4)
	s2 := w.Publish()
	if s2.Epoch() != 2 || s2.Version("R") != 2 || s2.Version("S") != 1 {
		t.Fatalf("epoch 2 versions: R=%d S=%d", s2.Version("R"), s2.Version("S"))
	}
	if s2.Rel("S") != s1.Rel("S") {
		t.Fatalf("untouched relation was not shared between snapshots")
	}
	if s2.Rel("R") == s1.Rel("R") {
		t.Fatalf("written relation shared with the previous snapshot")
	}
	// An empty publish still advances the epoch, sharing everything.
	s3 := w.Publish()
	if s3.Epoch() != 3 || s3.Rel("R") != s2.Rel("R") || s3.Rel("S") != s2.Rel("S") {
		t.Fatalf("empty publish: epoch %d", s3.Epoch())
	}
	if s3.Version("R") != 2 || s3.Version("S") != 1 {
		t.Fatalf("empty publish bumped a version")
	}
}

// TestEpochCOWIdentity pins the byte-identity property the
// copy-on-write clone must preserve: after the writer clones a sealed
// relation and keeps appending — far enough to re-chain the working
// copy's index — the published snapshot is untouched down to its batch
// scan, and the next snapshot's relation replays the previous one's
// interned ID columns and scan order as an exact prefix.
func TestEpochCOWIdentity(t *testing.T) {
	const base, more = 30000, 10000
	w := NewEpoch(epochSchema())
	for i := int64(0); i < base; i++ {
		w.AddInts("R", i%17, i)
	}
	s1 := w.Publish()
	r1 := s1.Rel("R")
	_, dict1 := r1.IDColumns()
	sealed, members := stateOf(r1), batchScanRows(r1)
	// Write through the epoch: the sealed relation must not move.
	var added []Tuple
	for i := int64(base); i < base+more; i++ {
		added = append(added, Ints(i%17, i))
		w.AddInts("R", i%17, i)
	}
	if len(w.Rel("R").rows.heads) == len(r1.rows.heads) {
		t.Fatalf("%d inserts did not re-chain the working copy's index of %d buckets", more, len(r1.rows.heads))
	}
	requireState(t, "published relation under the writer", r1, sealed, members, added)
	if _, dict1b := r1.IDColumns(); dict1b != dict1 {
		t.Fatalf("published relation's dictionary changed identity")
	}
	sameRows(t, "published relation's batch scan under the writer", batchScanRows(r1), members)
	s2 := w.Publish()
	r2 := s2.Rel("R")
	if r2.Len() != base+more {
		t.Fatalf("epoch-2 relation has %d tuples", r2.Len())
	}
	// The clone copied the columns and the dictionary: identical ID
	// assignment, columns and scan order on the shared prefix.
	cols2, _ := r2.IDColumns()
	for k, col := range sealed.cols {
		if !slices.Equal(cols2[k][:len(col)], col) {
			t.Fatalf("COW clone diverges in ID column %d", k)
		}
	}
	sameRows(t, "COW clone's scan order on the shared prefix", drainTuples(r2.Cursor())[:base], members)
}

// TestEpochFromStore pins the loader: the published epoch-1 snapshot
// equals the source store byte for byte.
func TestEpochFromStore(t *testing.T) {
	d := NewDatabase(epochSchema())
	for i := int64(0); i < 40; i++ {
		d.AddInts("R", i%5, i)
		d.AddInts("S", i%11)
	}
	w := EpochFromStore(d)
	s := w.Snapshot()
	if s.Epoch() != 1 {
		t.Fatalf("EpochFromStore published epoch %d", s.Epoch())
	}
	if !storesEqual(d, s) {
		t.Fatalf("epoch snapshot differs from source")
	}
	sameRows(t, "snapshot scan order", drainTuples(s.Rel("R").Cursor()), drainTuples(d.Rel("R").Cursor()))
}

// TestFrozenDictPrefix pins the facade semantics: the frozen prefix is
// fixed at freeze time, post-freeze interns are invisible, and
// out-of-prefix access panics.
func TestFrozenDictPrefix(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Int(1))
	b := in.Intern(Str("x"))
	d := FreezeDict(in)
	if d.Len() != 2 {
		t.Fatalf("frozen Len %d", d.Len())
	}
	late := in.Intern(Int(99)) // post-freeze intern: outside the prefix
	if d.Len() != 2 {
		t.Fatalf("freeze point moved")
	}
	if id, ok := d.ID(Int(1)); !ok || id != a {
		t.Fatalf("frozen ID(1) = %d, %v", id, ok)
	}
	if d.Value(b).String() != "x" {
		t.Fatalf("frozen Value(%d) = %s", b, d.Value(b))
	}
	if _, ok := d.ID(Int(99)); ok {
		t.Fatalf("post-freeze value visible through the facade")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Value outside the prefix did not panic")
			}
		}()
		d.Value(late)
	}()
	var zero FrozenDict
	if zero.Len() != 0 {
		t.Fatalf("zero FrozenDict Len %d", zero.Len())
	}
	if _, ok := zero.ID(Int(1)); ok {
		t.Fatalf("zero FrozenDict resolved an ID")
	}
}

// TestSnapshotIsolationRandomized is the tentpole's -race proof at the
// rel layer: reader goroutines continuously grab the current snapshot
// and verify it is byte-identical to the quiesced expectation for its
// epoch — same tuples, same insertion order, same interned ID columns
// — while the writer keeps appending and publishing. A reader also
// pins stale-snapshot stability: the first snapshot it saw must still
// verify after every later publish has happened.
func TestSnapshotIsolationRandomized(t *testing.T) {
	const epochs = 24
	// Deterministic schedule: epoch e appends rows [20e, 20e+20) in a
	// shuffled-ish order derived from the row index.
	rowsAt := func(e int) []Tuple {
		var ts []Tuple
		for i := int64(0); i < int64(20*e); i++ {
			ts = append(ts, Ints((i*7)%13, i))
		}
		return ts
	}
	// expected[e] is the exact insertion-order content of R at epoch e.
	expected := make([][]Tuple, epochs+1)
	for e := 0; e <= epochs; e++ {
		expected[e] = rowsAt(e)
	}
	verify := func(s *Snapshot) error {
		e := int(s.Epoch())
		want := expected[e]
		r := s.Rel("R")
		if r.Len() != len(want) {
			return fmt.Errorf("epoch %d: %d tuples, want %d", e, r.Len(), len(want))
		}
		// Every way of reading rows, from every reader goroutine at once:
		// under -race this is the check that no accessor writes to a
		// sealed relation.
		for _, reader := range rowReaders {
			if err := rowsDiffer(reader.read(r), want); err != nil {
				return fmt.Errorf("epoch %d: %s diverges: %v", e, reader.name, err)
			}
		}
		if len(r.Sorted()) != len(want) || (len(want) > 0 && !r.Contains(want[len(want)-1])) {
			return fmt.Errorf("epoch %d: Sorted or Contains lost a tuple", e)
		}
		// The interned ID columns are deterministic too: rebuilding the
		// same insertion sequence assigns the same IDs.
		cols, dict := r.IDColumns()
		for i, wt := range want {
			for k := range wt {
				if dict.Value(cols[k][i]) != wt[k] {
					return fmt.Errorf("epoch %d: ID column %d decodes wrong at %d", e, k, i)
				}
			}
		}
		return nil
	}
	w := NewEpoch(epochSchema())
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := w.Snapshot()
			for {
				select {
				case <-done:
					// Stale snapshots verify after every later publish.
					if err := verify(first); err != nil {
						errs <- fmt.Errorf("stale snapshot: %v", err)
					}
					return
				default:
				}
				if err := verify(w.Snapshot()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for e := 1; e <= epochs; e++ {
		for i := 20 * (e - 1); i < 20*e; i++ {
			w.AddInts("R", (int64(i)*7)%13, int64(i))
		}
		s := w.Publish()
		if int(s.Epoch()) != e {
			t.Fatalf("published epoch %d, want %d", s.Epoch(), e)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// storesEqual reports whether two stores have the same schema domain
// and identical relation contents (as sets — insertion order is not
// compared): Database.Equal generalized over backends, so a snapshot
// can be compared against the database it was loaded from.
func storesEqual(a, b ReadStore) bool {
	as, bs := a.Schema(), b.Schema()
	if len(as) != len(bs) {
		return false
	}
	for name, ar := range as {
		br, ok := bs[name]
		if !ok || ar != br {
			return false
		}
		av, bv := a.View(name), b.View(name)
		if av.Len() != bv.Len() {
			return false
		}
		c := scanTuples(av)
		for t, ok := c.Next(); ok; t, ok = c.Next() {
			if !bv.Contains(t) {
				return false
			}
		}
	}
	return true
}
