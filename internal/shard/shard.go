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
// already holds every relation as columns of IDs in its one dictionary,
// so FromStore copies that dictionary once and gives it to every shard:
// each shard is a rel.Database over the copy, and a shard-local
// relation holds its rows as the source's own IDs. FromStore routes
// each relation in one pass over its first column, deals the IDs out
// to per-shard column buffers, and lets one builder per shard insert
// its buffer through Relation.AddBatch in parallel — no tuple is
// decoded and no value interned, and every row still passes the
// shard-local relation's dedup. The shards are built once by FromStore
// and never written after it returns; the copy keeps them from seeing
// what the source interns later.
//
// Routers are per relation: each relation name owns a flat list of its
// first-column IDs in source order, so a relation's router gids are
// exactly the group IDs the sequential hash algorithms assign — the
// merge phase walks them in order and reproduces the single-store
// emission sequence byte for byte. A placement log per relation
// records the (shard, local index) of every row in source order; the
// operators read a broadcast side through it (view.go), in the order
// the sequential algorithms read it.
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
	// dict is the one dictionary of every shard: a copy of the source's.
	dict   *rel.Interner
	shards []*rel.Database
	// routers maps each relation to its router: by gid, the ID of the
	// gid-th distinct first-column value in source order. Nil map when
	// single-shard.
	routers map[string][]uint32
	// placement is each relation's source order, resolved against the
	// shard-local relations. Nil map when single-shard.
	placement map[string][]place
}

// FromStore partitions every relation of src across n shards (values
// below 1 mean 1), relations in name order, tuples in source order —
// so the routers, and hence the partitioning, are deterministic for a
// deterministically built source. It never leaves the IDs of src's
// dictionary (see load).
func FromStore(src rel.ReadStore, n int) *Database {
	if n < 1 {
		n = 1
	}
	schema := src.Schema()
	s := &Database{schema: schema, dict: src.Dict().Clone(), shards: make([]*rel.Database, n)}
	for i := range s.shards {
		s.shards[i] = rel.NewDatabaseOver(schema, s.dict)
		// Database.Rel creates an absent relation: a map write. Create
		// every one now, so that neither the concurrent builders nor the
		// readers of the sealed partition ever write a shard's map.
		for name := range schema {
			s.shards[i].Rel(name)
		}
	}
	if n > 1 {
		s.routers = make(map[string][]uint32, len(schema))
		s.placement = make(map[string][]place, len(schema))
	}
	for _, name := range schema.Names() {
		cols, rows := columns(src, name)
		s.load(name, cols, rows)
	}
	return s
}

// columns returns the named relation's ID columns in src's dictionary
// and its row count: an in-memory database's stored columns, read in
// place, and any other backend's batch scan, gathered once.
func columns(src rel.ReadStore, name string) ([][]uint32, int) {
	if d, ok := src.(*rel.Database); ok {
		r := d.Rel(name)
		cols, _ := r.IDColumns()
		return cols, r.Len()
	}
	v := src.View(name)
	cols := make([][]uint32, v.Arity())
	for k := range cols {
		cols[k] = make([]uint32, 0, v.Len())
	}
	rows := 0
	c := v.BatchScanSized(rel.BatchCap)
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		if b.Dict() != src.Dict() {
			panic(fmt.Sprintf("shard: a batch of %s is not in its store's dictionary", name))
		}
		for k := range cols {
			cols[k] = append(cols[k], b.Col(k)...)
		}
		rows += b.Len()
	}
	return cols, rows
}

// load bulk-inserts the named relation's rows, ID columns in the
// source's dictionary and so in the shards' copy of it, into the
// database FromStore is building: scatter deals them out to per-shard
// column buffers, then one builder per shard, in parallel (each writes
// its own shard's relation and interns nothing), inserts its buffer
// through Relation.AddBatch as a batch over the shards' dictionary —
// the same dedup probe as tuple-wise Relation.Adds of the shard's rows
// in source order. With one shard there is nothing to route and the
// one builder reads the source's columns in place.
func (s *Database) load(name string, cols [][]uint32, rows int) {
	if rows == 0 {
		return // no router, no log
	}
	bufs, counts := [][][]uint32{cols}, []int32{int32(rows)}
	if len(s.shards) > 1 {
		bufs, counts = s.scatter(name, cols, rows)
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
		b.MakeView(bufs[q], s.dict)
		b.SliceView(bufs[q], 0, n)
		added[q] = r.AddBatch(&b)
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
// once, giving each distinct key the next gid — its router entry — and
// the shard exec.PartOf maps that gid to; every later row of the key
// finds its shard in a flat array indexed by ID. It writes the
// placement log; the log then says where each row's IDs go in the
// per-shard column buffers it returns, with the per-shard row counts.
// Arity-0 rows all go to shard 0 and need no router.
func (s *Database) scatter(name string, cols [][]uint32, rows int) ([][][]uint32, []int32) {
	k := len(s.shards)
	log := make([]place, rows)
	counts := make([]int32, k)
	if len(cols) == 0 {
		counts[0] = int32(rows) // log entries are already {0, 0}: the one row there can be
	} else {
		var router []uint32
		shardOf := make([]int32, s.dict.Len()) // ID -> 1 + shard, 0 until routed
		for row, id := range cols[0] {
			q := shardOf[id] - 1
			if q < 0 {
				q = int32(exec.PartOf(uint32(len(router)), k))
				router = append(router, id)
				shardOf[id] = q + 1
			}
			log[row] = place{q, counts[q]}
			counts[q]++
		}
		s.routers[name] = router
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
// databases, their dictionary, the routers and the placement logs with
// the database, which FromStore no longer writes.
func (s *Database) Publish() *Snapshot {
	return &Snapshot{schema: s.schema, dict: s.dict, shards: s.shards, routers: s.routers, placement: s.placement}
}
