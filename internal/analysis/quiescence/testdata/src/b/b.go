// Package b pins the snapshot half of the contract: state obtained
// from a published snapshot (rel.Snapshot, shard.Snapshot) is sealed —
// mutating it must be flagged — while reads of snapshot state,
// including concurrent reads from exchange workers, are the entire
// point of snapshots and must stay silent. Cloning sanitizes: a clone
// is the caller's to mutate.
package b

import (
	"radiv/internal/engine"
	"radiv/internal/rel"
	"radiv/internal/shard"
)

// MutateSnapshotRel is the direct violation shape: writing into a
// relation handed out by a published snapshot.
func MutateSnapshotRel(snap *rel.Snapshot, t rel.Tuple) {
	r := snap.Rel("R")
	r.Add(t)                              // want `Relation.Add mutating a published snapshot`
	r.Reserve(10)                         // want `Relation.Reserve mutating a published snapshot`
	snap.Rel("R").Add(t)                  // want `Relation.Add mutating a published snapshot`
	snap.Rel("R").Interner().Intern(t[0]) // want `Interner.Intern mutating a published snapshot`
}

// MutateShardSnapshot reaches sealed state through the sharded
// snapshot's partition anatomy.
func MutateShardSnapshot(snap *shard.Snapshot, t rel.Tuple) {
	local := snap.ShardRel(0, "R")
	local.Add(t) // want `Relation.Add mutating a published snapshot`
}

// MutateThroughIDMap interns into a snapshot dictionary one
// indirection later, through a translation cache targeting it.
func MutateThroughIDMap(snap *rel.Snapshot, b *rel.Batch) {
	dict := snap.Rel("R").Interner()
	xl := rel.NewIDMap(dict)
	xl.Intern(b.Dict(0), b.Col(0)[0]) // want `IDMap.Intern mutating a published snapshot`
}

// MutateMaterialized mutates the aliased relation rel.Materialized
// hands back for a snapshot store (aliased is always true there).
func MutateMaterialized(snap *rel.Snapshot, t rel.Tuple) {
	r, _ := rel.Materialized(snap, "R")
	r.Add(t) // want `Relation.Add mutating a published snapshot`
}

// MutateInWorker is the race the contract exists to prevent: a worker
// goroutine writing into captured snapshot state while other workers
// read it — both halves of the law flag it.
func MutateInWorker(ex engine.Executor, parts [][]rel.Tuple, snap *rel.Snapshot) {
	r := snap.Rel("R")
	ex.Run(len(parts), func(q int) {
		for _, t := range parts[q] {
			r.Add(t) // want `Relation.Add interning into a captured relation` `Relation.Add mutating a published snapshot`
		}
	})
}

// ReadSnapshot exercises the legal surface: scans, probes, dictionary
// lookups, frozen facades — all reads, all silent.
func ReadSnapshot(snap *rel.Snapshot, t rel.Tuple) int {
	n := 0
	r := snap.Rel("R")
	c := r.Cursor()
	for tup, ok := c.Next(); ok; tup, ok = c.Next() {
		if r.Contains(tup) {
			n++
		}
	}
	if id, ok := snap.Dict("R").ID(t[0]); ok {
		n += int(id)
	}
	if _, ok := snap.Rel("R").Interner().ID(t[0]); ok {
		n++
	}
	return n + snap.Size()
}

// WorkerReadsSnapshotDict is the pattern the snapshot contract
// legalizes: sharded-exchange workers decode against a captured
// snapshot dictionary while their siblings do the same. The dictionary
// is sealed, so the reads are safe — silent.
func WorkerReadsSnapshotDict(ex engine.Executor, shards []rel.BatchCursor, snap *rel.Snapshot, hits []int) {
	dict := snap.Rel("R").Interner()
	ex.StreamShardedBatchesGov(nil, shards, func(q int, shard rel.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				_ = dict.Value(b.Col(0)[row]) // sealed dictionary: reads are safe mid-exchange
				hits[q]++
			}
			b.Release()
		}
	})
}

// CloneSanitizes pins the sanitizer: a clone of snapshot state is
// caller-owned and freely mutable.
func CloneSanitizes(snap *rel.Snapshot, t rel.Tuple) *rel.Relation {
	r := snap.Rel("R").Clone()
	r.Add(t)
	return r
}
