// Package b pins the snapshot half of the contract: state obtained
// from a published shard.Snapshot is sealed — mutating it must be
// flagged — while reads of snapshot state, including concurrent reads
// from exec.Run workers, are the entire point of sealing and must stay
// silent. Cloning sanitizes: a clone is the caller's to mutate.
package b

import (
	"radiv/internal/exec"
	"radiv/internal/rel"
	"radiv/internal/shard"
)

// MutateSnapshotRel is the direct violation shape: writing into a
// shard-local relation handed out by a published snapshot.
func MutateSnapshotRel(snap *shard.Snapshot, t rel.Tuple) {
	r := snap.ShardRel(0, "R")
	r.Add(t)                                      // want `Relation.Add mutating a published snapshot`
	r.Reserve(10)                                 // want `Relation.Reserve mutating a published snapshot`
	r.Sort()                                      // want `Relation.Sort mutating a published snapshot`
	snap.ShardRel(0, "R").Add(t)                  // want `Relation.Add mutating a published snapshot`
	snap.ShardRel(0, "R").Interner().Intern(t[0]) // want `Interner.Intern mutating a published snapshot`
}

// MutateSharedDict interns into the dictionary every shard's
// relations share, reached through another shard's relation's
// IDColumns: one dictionary for the whole partition, sealed like the
// rest of it.
func MutateSharedDict(snap *shard.Snapshot, v rel.Value) {
	_, dict := snap.ShardRel(1, "S").IDColumns()
	dict.Intern(v) // want `Interner.Intern mutating a published snapshot`
}

// ResultOverSnapshot adds to a result whose dictionary is based on a
// snapshot dictionary: interning writes the result's own tail, never
// the base — silent.
func ResultOverSnapshot(snap *shard.Snapshot, t rel.Tuple) *rel.Relation {
	r := rel.NewRelationOver(1, snap.ShardRel(0, "R").Interner())
	r.Add(t)
	r.Interner().Intern(t[0])
	return r
}

// MutateInWorker is the race the contract exists to prevent: a worker
// goroutine writing into captured snapshot state while other workers
// read it — both halves of the law flag it.
func MutateInWorker(workers int, parts [][]rel.Tuple, snap *shard.Snapshot) {
	r := snap.ShardRel(0, "R")
	exec.Run(workers, len(parts), func(q int) {
		for _, t := range parts[q] {
			r.Add(t) // want `Relation.Add interning into a captured relation` `Relation.Add mutating a published snapshot`
		}
	})
}

// ReadSnapshot exercises the legal surface: scans, probes and
// dictionary lookups — all reads, all silent.
func ReadSnapshot(snap *shard.Snapshot, t rel.Tuple) int {
	n := 0
	r := snap.ShardRel(0, "R")
	c := r.Cursor()
	for tup, ok := c.Next(); ok; tup, ok = c.Next() {
		if r.Contains(tup) {
			n++
		}
	}
	if _, ok := snap.ShardRel(0, "R").Interner().ID(t[0]); ok {
		n++
	}
	return n + snap.NumShards()
}

// WorkerReadsSnapshotDict is the pattern the contract legalizes:
// per-shard pool workers decode against a captured snapshot dictionary
// while their siblings do the same. The dictionary is sealed, so the
// reads are safe — silent.
func WorkerReadsSnapshotDict(workers int, shards []rel.BatchCursor, snap *shard.Snapshot, hits []int) {
	dict := snap.ShardRel(0, "R").Interner()
	exec.Run(workers, len(shards), func(q int) {
		for b, ok := shards[q].NextBatch(); ok; b, ok = shards[q].NextBatch() {
			for row := 0; row < b.Len(); row++ {
				_ = dict.Value(b.Col(0)[row]) // sealed dictionary: reads are safe
				hits[q]++
			}
		}
	})
}

// CloneSanitizes pins the sanitizer: a clone of snapshot state is
// caller-owned and freely mutable.
func CloneSanitizes(snap *shard.Snapshot, t rel.Tuple) *rel.Relation {
	r := snap.ShardRel(0, "R").Clone()
	r.Add(t)
	return r
}
