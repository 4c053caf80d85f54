// Package shard implements a hash-partitioned store with snapshot
// epochs: one logical database split across N shard-local epoch
// writers (rel.Epoch), publishing immutable Snapshots in lockstep.
// Every relation is partitioned by the interned ID of its tuples'
// first column — routed through the deterministic avalanche
// partitioner exec.PartOf, which division.ParallelHash routes by too —
// so all tuples sharing a group key land in the same shard. That invariant is
// what lets the group-keyed algorithms (hash division, the set joins)
// run shard-locally and merge without cross-shard traffic: a shard
// holds its groups whole.
//
// Routing dictionaries are per relation: each relation name owns a
// rel.Interner over the first-column values it has seen, in insertion
// order, so a relation's router IDs are exactly the group IDs the
// sequential hash algorithms assign — the merge phase walks them in
// order and reproduces the single-store emission sequence byte for
// byte (see exec.go). Each shard-local store is a full rel.Epoch with
// its own per-relation interners and dedup indexes; nothing is shared
// between shards except the read-only routing dictionaries.
//
// The Store contract's insertion-order batch scan is preserved across
// partitioning by a placement log: per relation, the (shard, local
// index) of every accepted tuple in arrival order. Scanning resolves
// the log against the shard-local relations, so every evaluator
// produces the same output sequence on a sharded store as on the
// in-memory database — the property the randomized equivalence suite
// pins at shard counts 1, 2 and 4.
//
// Epochs extend that equivalence across concurrent mutation: Publish
// seals every shard's state in lockstep and hands out a *Snapshot —
// an immutable rel.ReadStore any number of goroutines may evaluate
// against while the writer keeps loading the next epoch. The snapshot
// shares structure with the live store three ways: unchanged
// shard-local relations are the same *rel.Relation pointers (rel's
// copy-on-write epochs), routing dictionaries are frozen facades
// cloned by the writer only on the next post-publish intern, and the
// placement log is prefix-shared (it is append-only, and a snapshot
// captures its length).
//
// There are two write paths and they build the same store. Add is the
// incremental one: route a tuple, insert it, log its place. FromStore
// is the bulk one: the source already holds every relation as columns
// of interned IDs, so it routes each relation in one pass over its
// first column (one router intern per distinct key), deals the IDs out
// to per-shard column buffers, and lets one builder per shard insert
// its buffer through Relation.AddBatch in parallel — no tuple is
// decoded and no value re-interned per row, and every row still passes
// the shard-local relation's dedup.
//
// With one shard the routing apparatus switches off: no routing, no
// placement log, every operation delegates to the single underlying
// rel.Epoch at zero overhead — and Publish still works, sealing that
// one epoch.
package shard

import (
	"fmt"
	"sync/atomic"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// place records where one tuple landed: which shard and at which
// position of the shard-local relation.
type place struct {
	shard int32
	idx   int32
}

// Source is what the shard-local execution layer (exec.go) runs on: a
// read store that additionally exposes its partition anatomy — the
// shard count, each shard's local relations, and the per-relation
// routing dictionary. Both the live *Database (the writer's
// uncommitted view) and a published *Snapshot implement it, so every
// entry point accepts either; pass a snapshot when other goroutines
// may be writing.
type Source interface {
	rel.ReadStore
	// NumShards returns the shard count.
	NumShards() int
	// ShardRel returns shard q's local relation for name. Read-only
	// for snapshot sources; for the live database the usual
	// single-writer discipline applies.
	ShardRel(q int, name string) *rel.Relation
	// Router returns the named relation's routing dictionary as a
	// frozen facade: first-column value → dense ID in first-occurrence
	// order, the group-ID order the shard-local merges emit in. It is
	// empty (Len 0) when the source has one shard (no routing happens)
	// or when the relation has no tuples yet.
	Router(name string) rel.FrozenDict
}

// Database is the hash-partitioned epoch writer. It implements
// rel.Store (the writer's uncommitted view) and Source. Mutate it only
// through its own Add (FromStore's bulk load is the one other writer,
// and only into a database nobody else holds yet); writing directly
// into a shard-local epoch bypasses the routing and placement
// bookkeeping. Like rel.Epoch, all methods except Snapshot must be called from a
// single writer goroutine; concurrent readers of the live store are
// safe once loading is complete, and published snapshots are safe for
// unlimited concurrent readers at any time.
type Database struct {
	schema rel.Schema
	shards []*rel.Epoch
	// routers holds the writer's current routing dictionaries. After a
	// Publish they are shared with the snapshot (sealed); the first
	// post-publish intern into one clones it first (copy-on-write), so
	// snapshot readers never observe a dictionary write. Nil map when
	// single-shard.
	routers map[string]*rel.Interner
	sealed  map[string]bool // routers shared with the published snapshot
	// placement is the per-relation global insertion order. The log is
	// append-only and snapshots capture a length-bounded prefix, so
	// writer appends and snapshot reads never touch the same entry.
	// Nil map when single-shard.
	placement map[string][]place
	epoch     uint64
	cur       atomic.Pointer[Snapshot]
}

var (
	_ rel.Store = (*Database)(nil)
	_ Source    = (*Database)(nil)
)

// New returns an empty sharded database over the schema with n shards
// (values below 1 mean 1) and an empty epoch-0 snapshot already
// published: Snapshot never returns nil. With n == 1 it is a thin
// wrapper around one epoch writer: no routing or placement state is
// kept.
func New(schema rel.Schema, n int) *Database {
	if n < 1 {
		n = 1
	}
	s := &Database{schema: schema, shards: make([]*rel.Epoch, n)}
	for i := range s.shards {
		s.shards[i] = rel.NewEpoch(schema)
	}
	if n > 1 {
		s.routers = make(map[string]*rel.Interner, len(schema))
		s.sealed = make(map[string]bool, len(schema))
		s.placement = make(map[string][]place, len(schema))
	}
	s.cur.Store(s.assemble())
	return s
}

// FromStore loads every tuple of src into a new sharded database over
// src's schema, relations in name order, tuples in insertion order —
// so the routing dictionaries, and hence the partitioning, are
// deterministic for a deterministically built source — and publishes
// the loaded state as epoch 1. The result is what adding src's tuples
// one by one through Add and publishing builds, down to every
// shard-local ID column and dictionary; it gets there without leaving
// interned-ID space (see load).
func FromStore(src rel.ReadStore, n int) *Database {
	s := New(src.Schema(), n)
	for _, name := range src.Schema().Names() {
		// The stored relation itself for the in-memory backends, a
		// one-off copy for any other: either way its ID columns.
		r, _ := rel.Materialized(src, name)
		s.load(name, r)
	}
	s.Publish()
	return s
}

// load bulk-inserts src into the named relation of a database fresh
// from New. The rows stay interned IDs in src's dictionary until a
// shard-local relation translates them into its own: scatter deals
// them out to per-shard column buffers, then one builder per shard, in
// parallel (each writes its own rel.Epoch and only reads src's
// dictionary), inserts its buffer through Relation.AddBatch — the same
// dedup probe and dictionary assignment order as Add. With one shard
// there is nothing to route and the one builder reads src's columns in
// place.
func (s *Database) load(name string, src *rel.Relation) {
	if src.Len() == 0 {
		return // as through Add: no working copy, no router, no log
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
		r := s.shards[q].Mutable(name)
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
// Arity-0 rows all go to shard 0 and need no router, like Add's.
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

// NumShards implements Source.
func (s *Database) NumShards() int { return len(s.shards) }

// Shard returns shard i's backing epoch writer. Treat its relations as
// read-only: the shard-local evaluation paths scan and probe them, but
// all mutation must go through the sharded database's Add.
func (s *Database) Shard(i int) *rel.Epoch { return s.shards[i] }

// ShardRel implements Source: shard q's local relation as the writer
// currently sees it (this epoch's working copy when written, the
// sealed base otherwise).
//
//radivvet:ignore callerowned Source.ShardRel is a documented view accessor like Store.View — shard-local evaluation scans it read-only
func (s *Database) ShardRel(q int, name string) *rel.Relation { return s.shards[q].Rel(name) }

// Router implements Source: the writer's current routing dictionary,
// frozen at its current length. Empty when the database has one shard
// or the relation has no tuples yet.
func (s *Database) Router(name string) rel.FrozenDict { return rel.FreezeDict(s.routers[name]) }

// Schema implements rel.Store.
func (s *Database) Schema() rel.Schema { return s.schema }

// Size implements rel.Store, over the writer's view.
func (s *Database) Size() int {
	n := 0
	for _, e := range s.shards {
		n += e.Size()
	}
	return n
}

// Add implements rel.Store: the tuple is routed to its shard by the
// interned ID of its first column (arity-0 tuples go to shard 0) and
// inserted into the shard-local relation's working copy, which
// deduplicates — duplicates route identically, so set semantics holds
// globally. The write lands in the current epoch's private state;
// published snapshots never see it.
func (s *Database) Add(name string, t rel.Tuple) bool {
	if len(s.shards) == 1 {
		return s.shards[0].Add(name, t)
	}
	q := s.route(name, t)
	r := s.shards[q].Mutable(name)
	pos := r.Len()
	if !r.Add(t) {
		return false
	}
	s.placement[name] = append(s.placement[name], place{int32(q), int32(pos)})
	return true
}

// AddInts inserts a tuple of integers into the named relation.
func (s *Database) AddInts(name string, ns ...int64) bool { return s.Add(name, rel.Ints(ns...)) }

// AddStrs inserts a tuple of strings into the named relation.
func (s *Database) AddStrs(name string, ss ...string) bool { return s.Add(name, rel.Strs(ss...)) }

// route assigns t's shard, interning its first column into the named
// relation's routing dictionary — after cloning the dictionary if it
// is still shared with the published snapshot (copy-on-write: paid at
// most once per relation per epoch, and only when a genuinely new
// first-column value arrives; re-routing a known value reads the
// sealed dictionary without mutating it).
func (s *Database) route(name string, t rel.Tuple) int {
	if len(t) == 0 {
		return 0
	}
	rt := s.routers[name]
	if rt == nil {
		rt = rel.NewInterner()
		s.routers[name] = rt
	}
	if id, ok := rt.ID(t[0]); ok {
		return exec.PartOf(id, len(s.shards))
	}
	if s.sealed[name] {
		rt = rt.Clone()
		s.routers[name] = rt
		delete(s.sealed, name)
	}
	return exec.PartOf(rt.Intern(t[0]), len(s.shards))
}

// ShardOf reports which shard holds tuples with t's first column, or
// -1 when no such tuple has been added (the value has no route yet).
// Arity-0 tuples live in shard 0.
func (s *Database) ShardOf(name string, t rel.Tuple) int {
	if len(s.shards) == 1 || len(t) == 0 {
		return 0
	}
	rt := s.routers[name]
	if rt == nil {
		return -1
	}
	id, ok := rt.ID(t[0])
	if !ok {
		return -1
	}
	return exec.PartOf(id, len(s.shards))
}

// View implements rel.Store over the writer's uncommitted view. With
// one shard the underlying relation is returned directly — the same
// zero-indirection view the in-memory Database gives. Readers wanting
// published state use Snapshot().View instead.
func (s *Database) View(name string) rel.StoredRel {
	if len(s.shards) == 1 {
		//radivvet:ignore callerowned rel.Store.View hands out views by contract; the shard store implements that same contract
		return s.shards[0].Rel(name)
	}
	return newRelView(s, name)
}

// Equal reports whether the sharded database holds the same schema
// domain and relation contents as another store (of any backend).
func (s *Database) Equal(other rel.ReadStore) bool { return rel.StoresEqual(s, other) }

// Publish seals the current epoch across every shard in lockstep —
// one rel.Epoch.Publish per shard, so the per-shard epoch numbers
// advance together — freezes the routing dictionaries, captures the
// placement logs' current lengths, and atomically publishes the
// combined *Snapshot. Publishing is O(#shards × #relations) pointer
// and map work; all tuple data is shared structurally with the
// snapshot (and with previous snapshots, for relations unchanged
// between them).
func (s *Database) Publish() *Snapshot {
	for _, e := range s.shards {
		e.Publish()
	}
	for name := range s.routers {
		s.sealed[name] = true
	}
	s.epoch++
	snap := s.assemble()
	s.cur.Store(snap)
	return snap
}

// Snapshot returns the most recently published snapshot. It is the one
// Database method safe to call from any goroutine: one atomic load, no
// locks, never nil.
func (s *Database) Snapshot() *Snapshot { return s.cur.Load() }

// assemble builds the immutable snapshot of the current published
// state: each shard's rel.Snapshot, frozen routers, and
// length-bounded placement-log prefixes (the three-index slice
// expression drops spare capacity, so the snapshot's slices can never
// alias a future writer append).
func (s *Database) assemble() *Snapshot {
	shards := make([]*rel.Snapshot, len(s.shards))
	for i, e := range s.shards {
		shards[i] = e.Snapshot()
	}
	snap := &Snapshot{schema: s.schema, epoch: s.epoch, shards: shards}
	if len(s.shards) > 1 {
		snap.routers = make(map[string]rel.FrozenDict, len(s.routers))
		for name, rt := range s.routers {
			snap.routers[name] = rel.FreezeDict(rt)
		}
		snap.placement = make(map[string][]place, len(s.placement))
		for name, log := range s.placement {
			snap.placement[name] = log[:len(log):len(log)]
		}
	}
	return snap
}
