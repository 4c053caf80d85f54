package shard

// This file implements the published, immutable side of the sharded
// store: Snapshot is the lockstep combination of every shard's
// rel.Snapshot plus the frozen routing dictionaries and the placement
// logs' prefixes as of the Publish that produced it. It implements
// rel.ReadStore and Source and deliberately nothing writable: like
// rel.Snapshot, there is no method through which a mutation could
// reach it, so unlimited concurrent readers — evaluators, shard-local
// executors, exchanges — need no coordination with the writer beyond
// the one atomic load that fetched the snapshot.

import (
	"fmt"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// Snapshot is an immutable published view of a sharded database: one
// sealed rel.Snapshot per shard, the frozen per-relation routing
// dictionaries, and the placement-log prefixes that replay global
// insertion order. Snapshots share structure with each other and with
// the live writer: relations unchanged between two epochs are the same
// *rel.Relation in both, routers are cloned by the writer only on the
// first post-publish intern, and placement logs are prefix-shared.
//
// All methods are safe for unlimited concurrent readers. The handles a
// snapshot exposes (ShardRel, views) are sealed: mutating one is a
// contract violation the quiescence analyzer flags statically.
type Snapshot struct {
	schema    rel.Schema
	epoch     uint64
	shards    []*rel.Snapshot
	routers   map[string]rel.FrozenDict // nil map when single-shard
	placement map[string][]place        // nil map when single-shard
}

var (
	_ rel.ReadStore = (*Snapshot)(nil)
	_ Source        = (*Snapshot)(nil)
)

// Schema implements rel.ReadStore.
func (s *Snapshot) Schema() rel.Schema { return s.schema }

// Epoch returns the snapshot's epoch number: 0 for the initial empty
// snapshot, incremented by every Publish.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumShards implements Source.
func (s *Snapshot) NumShards() int { return len(s.shards) }

// ShardRel implements Source: shard q's sealed local relation. It is
// frozen — read-only, safe for concurrent readers, never mutated by
// any future epoch.
//
//radivvet:ignore callerowned Source.ShardRel is a documented view accessor like Store.View — the sealed relation is immutable
func (s *Snapshot) ShardRel(q int, name string) *rel.Relation { return s.shards[q].Rel(name) }

// Router implements Source: the frozen routing dictionary sealed at
// publish time. Empty when the snapshot has one shard or the relation
// had no tuples yet.
func (s *Snapshot) Router(name string) rel.FrozenDict { return s.routers[name] }

// Version returns the named relation's version, summed across shards:
// 0 until the relation is first written, strictly increased by every
// Publish that sealed a change to it in any shard. It panics when name
// is not in the schema. Like rel.Snapshot.Version, an unchanged
// version guarantees unchanged shard-local relation pointers, hence
// byte-identical scans.
func (s *Snapshot) Version(name string) uint64 {
	if _, ok := s.schema.Arity(name); !ok {
		panic(fmt.Sprintf("shard: relation %q not in schema", name))
	}
	v := uint64(0)
	for _, sh := range s.shards {
		v += sh.Version(name)
	}
	return v
}

// Size implements rel.ReadStore.
func (s *Snapshot) Size() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Size()
	}
	return n
}

// View implements rel.ReadStore. With one shard the sealed relation is
// returned directly, the same zero-indirection view rel.Snapshot
// gives; otherwise the view replays the placement-log prefix across
// the sealed shard-local relations.
func (s *Snapshot) View(name string) rel.StoredRel {
	if len(s.shards) == 1 {
		//radivvet:ignore callerowned rel.ReadStore.View hands out views by contract; the snapshot's sealed relation is immutable
		return s.shards[0].Rel(name)
	}
	return newRelView(s, name)
}

// ShardOf reports which shard holds tuples with t's first column, or
// -1 when no such tuple was published (the value has no route in this
// snapshot). Arity-0 tuples live in shard 0.
func (s *Snapshot) ShardOf(name string, t rel.Tuple) int {
	if len(s.shards) == 1 || len(t) == 0 {
		return 0
	}
	id, ok := s.routers[name].ID(t[0])
	if !ok {
		return -1
	}
	return exec.PartOf(id, len(s.shards))
}

// Equal reports whether the snapshot holds the same schema domain and
// relation contents as another store (of any backend).
func (s *Snapshot) Equal(other rel.ReadStore) bool { return rel.StoresEqual(s, other) }
