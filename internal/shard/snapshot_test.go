package shard_test

import (
	"fmt"
	"sync"
	"testing"

	"radiv/internal/division"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/workload"
)

// TestShardPublishLockstep pins the epoch semantics of the sharded
// store: unpublished writes are invisible to the snapshot, Publish
// seals every shard in lockstep, and an old snapshot keeps verifying
// byte-identically after later epochs land.
func TestShardPublishLockstep(t *testing.T) {
	for _, n := range shardCounts {
		d := workload.RandomDivision(5).Database()
		s := shard.FromStore(d, n)
		snap1 := s.Snapshot()
		if snap1.Epoch() != 1 || snap1.NumShards() != n {
			t.Fatalf("shards %d: FromStore snapshot epoch %d", n, snap1.Epoch())
		}
		if !snap1.Equal(d) || !rel.StoresEqual(d, snap1) {
			t.Fatalf("shards %d: epoch-1 snapshot differs from source", n)
		}
		size1 := snap1.Size()
		v1 := snap1.Version("R")
		// Unpublished writes: visible to the live store, not the snapshot.
		added := 0
		for i := int64(0); added < 5; i++ {
			if s.AddInts("R", 1000+i, i) {
				added++
			}
		}
		if s.Snapshot() != snap1 || snap1.Size() != size1 {
			t.Fatalf("shards %d: unpublished writes leaked into the snapshot", n)
		}
		if s.Size() != size1+5 {
			t.Fatalf("shards %d: live store does not see its writes", n)
		}
		snap2 := s.Publish()
		if snap2.Epoch() != 2 || snap2.Size() != size1+5 {
			t.Fatalf("shards %d: epoch-2 snapshot size %d want %d", n, snap2.Size(), size1+5)
		}
		if snap2.Version("R") <= v1 {
			t.Fatalf("shards %d: R version did not advance: %d -> %d", n, v1, snap2.Version("R"))
		}
		if snap2.Version("S") != snap1.Version("S") {
			t.Fatalf("shards %d: untouched S version moved", n)
		}
		// The old snapshot is stable: same size, same scan order as the
		// original source.
		if snap1.Size() != size1 || !snap1.Equal(d) {
			t.Fatalf("shards %d: old snapshot changed after a later publish", n)
		}
		// The new snapshot equals the live store.
		if !snap2.Equal(s) {
			t.Fatalf("shards %d: published snapshot differs from live store", n)
		}
	}
}

// TestShardSnapshotExecEquivalence is the acceptance sweep on the
// published store: division and the set joins over a *Snapshot are
// byte-identical to the sequential algorithms on the merged relations,
// at shard counts 1, 2 and 4 × workers 1, 2 and 4 — exactly the
// guarantee the live-store sweep pins, now for the immutable side.
func TestShardSnapshotExecEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, n := range shardCounts {
			d, s := divisionStores(seed, n)
			snap := s.Snapshot()
			for _, sem := range []division.Semantics{division.Containment, division.Equality} {
				want, _ := division.Hash{}.Divide(d.Rel("R"), d.Rel("S"), sem)
				for _, workers := range []int{1, 2, 4} {
					got, st := shard.Divide(snap, "R", "S", sem, workers)
					if err := sameTuples(want, got); err != nil {
						t.Fatalf("seed %d shards %d workers %d %s: %v", seed, n, workers, sem, err)
					}
					if len(st.ShardResident) != n {
						t.Fatalf("seed %d shards %d: %d resident entries", seed, n, len(st.ShardResident))
					}
				}
			}
			// The executor and the materialized evaluator over the
			// snapshot match the in-memory database.
			raExpr := ra.DivisionExpr("R", "S")
			onExecutor := func(d rel.ReadStore) *rel.Relation {
				return plan.CompileIR(plan.FromRA(raExpr), d, plan.Options{}).Execute()
			}
			if err := sameTuples(onExecutor(d), onExecutor(snap)); err != nil {
				t.Fatalf("seed %d shards %d: executor on snapshot: %v", seed, n, err)
			}
			if err := sameTuples(ra.Eval(raExpr, d), ra.Eval(raExpr, snap)); err != nil {
				t.Fatalf("seed %d shards %d: ra materialized on snapshot: %v", seed, n, err)
			}
		}
	}
}

// TestShardSnapshotIsolationRandomized is the tentpole's -race proof
// at the shard layer: reader goroutines continuously grab the current
// snapshot and verify both the storage contract (scans byte-identical
// to the quiesced expectation for that epoch) and the execution layer
// (shard.Divide on the snapshot byte-identical to the sequential
// division at that epoch) while the writer keeps loading and
// publishing epochs — concurrent readers on snapshot N during the
// load of N+1, at every shard count.
func TestShardSnapshotIsolationRandomized(t *testing.T) {
	const epochs = 8
	for _, n := range shardCounts {
		// Deterministic schedule: epoch e holds dividend rows [0, 30e)
		// over 9 groups and divisor values [0, e).
		rTuples := func(e int) []rel.Tuple {
			var ts []rel.Tuple
			for i := int64(0); i < int64(30*e); i++ {
				ts = append(ts, rel.Ints((i*5)%9, i%13))
			}
			return dedup(ts)
		}
		sTuples := func(e int) []rel.Tuple {
			var ts []rel.Tuple
			for i := int64(0); i < int64(e); i++ {
				ts = append(ts, rel.Ints(i%13))
			}
			return dedup(ts)
		}
		type epochWant struct {
			r, s []rel.Tuple
			div  *rel.Relation
		}
		wants := make([]epochWant, epochs+1)
		for e := 0; e <= epochs; e++ {
			rRel, sRel := rel.NewRelation(2), rel.NewRelation(1)
			for _, tu := range rTuples(e) {
				rRel.Add(tu)
			}
			for _, tu := range sTuples(e) {
				sRel.Add(tu)
			}
			div, _ := division.Hash{}.Divide(rRel, sRel, division.Containment)
			wants[e] = epochWant{r: rTuples(e), s: sTuples(e), div: div}
		}
		verify := func(snap *shard.Snapshot, workers int) error {
			e := int(snap.Epoch())
			w := wants[e]
			if err := scanMatches(snap.View("R"), w.r); err != nil {
				return fmt.Errorf("shards %d epoch %d R: %v", n, e, err)
			}
			if err := scanMatches(snap.View("S"), w.s); err != nil {
				return fmt.Errorf("shards %d epoch %d S: %v", n, e, err)
			}
			got, _ := shard.Divide(snap, "R", "S", division.Containment, workers)
			if err := sameTuples(w.div, got); err != nil {
				return fmt.Errorf("shards %d epoch %d divide: %v", n, e, err)
			}
			return nil
		}
		db := shard.New(rel.NewSchema(map[string]int{"R": 2, "S": 1}), n)
		var wg sync.WaitGroup
		done := make(chan struct{})
		errs := make(chan error, 8)
		for g := 0; g < 3; g++ {
			workers := 1 + g // readers at 1, 2 and 3 workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				first := db.Snapshot()
				for {
					select {
					case <-done:
						if err := verify(first, workers); err != nil {
							errs <- fmt.Errorf("stale snapshot: %v", err)
						}
						return
					default:
					}
					if err := verify(db.Snapshot(), workers); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		for e := 1; e <= epochs; e++ {
			for _, tu := range rTuples(e)[len(wants[e-1].r):] {
				db.Add("R", tu)
			}
			for _, tu := range sTuples(e)[len(wants[e-1].s):] {
				db.Add("S", tu)
			}
			if snap := db.Publish(); int(snap.Epoch()) != e {
				t.Fatalf("shards %d: published epoch %d want %d", n, snap.Epoch(), e)
			}
		}
		close(done)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// dedup drops repeated tuples, keeping first occurrence — the
// insertion-order content a set-semantics store ends up with.
func dedup(ts []rel.Tuple) []rel.Tuple {
	seen := make(map[string]bool, len(ts))
	var out []rel.Tuple
	for _, t := range ts {
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// scanRows decodes a view's batch scan, at the given batch size, into
// its rows in scan order.
func scanRows(v rel.StoredRel, size int) []rel.Tuple {
	var ts []rel.Tuple
	c := v.BatchScanSized(size)
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		for r := 0; r < b.Len(); r++ {
			ts = append(ts, b.Row(nil, r))
		}
		b.Release()
	}
	return ts
}

// scanMatches verifies a view scans exactly the given tuples in order.
func scanMatches(v rel.StoredRel, want []rel.Tuple) error {
	got := scanRows(v, 0)
	if v.Len() != len(want) || len(got) != len(want) {
		return fmt.Errorf("%d tuples, %d scanned, want %d", v.Len(), len(got), len(want))
	}
	for i, wt := range want {
		if !got[i].Equal(wt) {
			return fmt.Errorf("scan diverges at %d: %s vs %s", i, got[i], wt)
		}
	}
	return nil
}

// TestShardViewNativeBatchScan pins the native columnar scan of the
// multi-shard view: at every batch size the decoded batch stream is
// byte-identical to the in-memory database's rows (global insertion
// order), batches are read-only views, and each batch's dictionaries
// decode its rows (run boundaries switch dictionaries — each shard
// owns its own).
func TestShardViewNativeBatchScan(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, n := range []int{2, 4} {
			d, s := divisionStores(seed, n)
			for _, name := range []string{"R", "S"} {
				v := s.View(name)
				want := d.Rel(name).Tuples()
				for _, size := range []int{1, 3, 64, rel.BatchCap} {
					bc := v.BatchScanSized(size)
					rows := 0
					var buf rel.Tuple
					for b, more := bc.NextBatch(); more; b, more = bc.NextBatch() {
						if b.Len() < 1 || b.Len() > size {
							t.Fatalf("seed %d shards %d %s size %d: batch of %d rows", seed, n, name, size, b.Len())
						}
						for r := 0; r < b.Len(); r++ {
							if rows >= len(want) {
								t.Fatalf("seed %d shards %d %s: batch stream longer than the relation", seed, n, name)
							}
							buf = b.Row(buf, r)
							if !buf.Equal(want[rows]) {
								t.Fatalf("seed %d shards %d %s size %d: row %d decodes %s want %s", seed, n, name, size, rows, buf, want[rows])
							}
							rows++
						}
						b.Release() // view batches: must be a no-op
					}
					if rows != v.Len() || rows != len(want) {
						t.Fatalf("seed %d shards %d %s: %d rows batched, %d stored", seed, n, name, rows, v.Len())
					}
				}
			}
		}
	}
}
