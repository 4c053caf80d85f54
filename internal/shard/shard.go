// Package shard partitions a database by hash and runs the paper's
// direct algorithms for division and the set joins shard-locally:
// Graefe's hash division, the containment join and the hash equality
// join (exec.go). Every relation is partitioned by the interned ID of
// its tuples' first column — routed through the deterministic
// avalanche partitioner exec.PartOf, which division.ParallelHash
// routes by too — so all tuples sharing a group key land in the same
// shard. That invariant is what lets the group-keyed algorithms run
// shard-locally and merge without cross-shard traffic: a shard holds
// its groups whole.
//
// FromStore builds the partition and Publish seals it. The source
// already holds every relation as columns of interned IDs, so
// FromStore routes each relation in one pass over its first column
// (one router intern per distinct key), deals the IDs out to per-shard
// column buffers, and lets one builder per shard insert its buffer
// through Relation.AddBatch in parallel — no tuple is decoded and no
// value re-interned per row, and every row still passes the
// shard-local relation's dedup. Each shard is a rel.Database with its
// own per-relation interners and dedup indexes, built once by
// FromStore and never written after it returns.
//
// Routing dictionaries are per relation: each relation name owns a
// rel.Interner over its first-column values in source order, so a
// relation's router IDs are exactly the group IDs the sequential hash
// algorithms assign — the merge phase walks them in order and
// reproduces the single-store emission sequence byte for byte. A
// placement log per relation records the (shard, local index) of every
// row in source order; the operators read a broadcast side through it
// (view.go), in the order the sequential algorithms read it.
//
// With one shard nothing is routed and no placement log is kept: the
// operators run without a merge on the one shard (exec.go).
package shard

import (
	"fmt"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// place records where one tuple landed: which shard and at which
// position of the shard-local relation.
type place struct {
	shard int32
	idx   int32
}

// Database is a partition under construction: FromStore fills it and
// Publish seals it into the *Snapshot the operators read. FromStore is
// its only writer; no rows are added after it returns.
type Database struct {
	schema rel.Schema
	shards []*rel.Database
	// routers maps each relation to its routing dictionary, first-column
	// value → dense ID in source order. Nil map when single-shard.
	routers map[string]*rel.Interner
	// placement is each relation's source order, resolved against the
	// shard-local relations. Nil map when single-shard.
	placement map[string][]place
}

// FromStore partitions every relation of src across n shards (values
// below 1 mean 1), relations in name order, tuples in source order —
// so the routing dictionaries, and hence the partitioning, are
// deterministic for a deterministically built source. It never leaves
// interned-ID space (see load).
func FromStore(src rel.ReadStore, n int) *Database {
	if n < 1 {
		n = 1
	}
	schema := src.Schema()
	s := &Database{schema: schema, shards: make([]*rel.Database, n)}
	for i := range s.shards {
		s.shards[i] = rel.NewDatabase(schema)
		// Database.Rel creates an absent relation: a map write. Create
		// every one now, so that neither the concurrent builders nor the
		// readers of the sealed partition ever write a shard's map.
		for name := range schema {
			s.shards[i].Rel(name)
		}
	}
	if n > 1 {
		s.routers = make(map[string]*rel.Interner, len(schema))
		s.placement = make(map[string][]place, len(schema))
	}
	for _, name := range schema.Names() {
		// The stored relation itself for the in-memory Database, a
		// one-off copy for any other: either way its ID columns.
		r, _ := rel.Materialized(src, name)
		s.load(name, r)
	}
	return s
}

// load bulk-inserts src into the named relation of the database
// FromStore is building. The rows stay interned IDs in src's dictionary until a
// shard-local relation translates them into its own: scatter deals
// them out to per-shard column buffers, then one builder per shard, in
// parallel (each writes its own shard database and only reads src's
// dictionary), inserts its buffer through Relation.AddBatch — the same
// dedup probe and dictionary assignment order as tuple-wise
// Relation.Adds of the shard's rows in source order. With one shard
// there is nothing to route and the one builder reads src's columns in
// place.
func (s *Database) load(name string, src *rel.Relation) {
	if src.Len() == 0 {
		return // no router, no log
	}
	cols, dict := src.IDColumns()
	bufs, counts := [][][]uint32{cols}, []int32{int32(src.Len())}
	if len(s.shards) > 1 {
		bufs, counts = s.scatter(name, cols, dict, src.Len())
	}
	added := make([]int, len(s.shards))
	exec.Run(0, len(s.shards), func(q int) {
		n := int(counts[q])
		if n == 0 {
			return
		}
		r := s.shards[q].Rel(name)
		r.Reserve(n)
		var b rel.Batch
		b.MakeView(bufs[q], dict)
		b.SliceView(bufs[q], 0, n)
		added[q] = r.AddBatch(&b)
		r.DropBatchCache() // the shard must not pin src's dictionary
	})
	for q, n := range added {
		// The placement log was written from the routed counts: a
		// rejected row would leave it pointing past the shard's end.
		if n != int(counts[q]) {
			panic(fmt.Sprintf("shard: bulk load of %s routed %d rows to shard %d, which accepted %d", name, counts[q], q, n))
		}
	}
}

// scatter is load's sequential routing pass. It walks the first column
// once, assigning router IDs in first-occurrence order — one
// Interner.Intern per distinct key; every later row of the key finds
// its shard in a flat array indexed by source ID — and writes the
// placement log; the log then says where each row's IDs go in the
// per-shard column buffers it returns, with the per-shard row counts.
// Arity-0 rows all go to shard 0 and need no router.
func (s *Database) scatter(name string, cols [][]uint32, dict *rel.Interner, rows int) ([][][]uint32, []int32) {
	k := len(s.shards)
	log := make([]place, rows)
	counts := make([]int32, k)
	if len(cols) == 0 {
		counts[0] = int32(rows) // log entries are already {0, 0}: the one row there can be
	} else {
		rt := rel.NewInterner()
		s.routers[name] = rt
		shardOf := make([]int32, dict.Len()) // source ID -> 1 + shard, 0 until routed
		for row, id := range cols[0] {
			q := shardOf[id] - 1
			if q < 0 {
				q = int32(exec.PartOf(rt.Intern(dict.Value(id)), k))
				shardOf[id] = q + 1
			}
			log[row] = place{q, counts[q]}
			counts[q]++
		}
	}
	s.placement[name] = log
	bufs := make([][][]uint32, k)
	for q := range bufs {
		bufs[q] = make([][]uint32, len(cols))
		for c := range cols {
			bufs[q][c] = make([]uint32, counts[q])
		}
	}
	for c, col := range cols {
		for row, id := range col {
			bufs[log[row].shard][c][log[row].idx] = id
		}
	}
	return bufs, counts
}

// Publish seals the partition. The snapshot shares the shard
// databases, routers and placement logs with the database, which
// FromStore no longer writes; Router hands a router out frozen.
func (s *Database) Publish() *Snapshot {
	return &Snapshot{schema: s.schema, shards: s.shards, routers: s.routers, placement: s.placement}
}
