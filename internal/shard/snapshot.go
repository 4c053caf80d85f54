package shard

// This file is the sealed side of the partition: Snapshot is every
// shard's database plus the frozen routing dictionaries and the
// placement logs, as of the Publish that produced it. It has no method
// through which a mutation could reach it, so any number of goroutines
// may run the operators on one snapshot.

import "radiv/internal/rel"

// Snapshot is a sealed partition: one rel.Database per shard, the
// frozen per-relation routing dictionaries, and the placement logs
// that replay source order. It is what Divide, ContainmentJoin and
// EqualityJoin read.
//
// All methods are safe for unlimited concurrent readers. The relations
// ShardRel hands out are sealed: mutating one is a contract violation
// the quiescence analyzer flags statically.
type Snapshot struct {
	schema    rel.Schema
	shards    []*rel.Database
	routers   map[string]*rel.Interner // sealed; nil map when single-shard
	placement map[string][]place       // nil map when single-shard
}

// NumShards returns the shard count.
func (s *Snapshot) NumShards() int { return len(s.shards) }

// ShardRel returns shard q's sealed local relation for name: read-only
// and safe for concurrent readers.
//
//radivvet:ignore callerowned ShardRel is the shard-local operators' read accessor — the sealed relation is immutable
func (s *Snapshot) ShardRel(q int, name string) *rel.Relation { return s.shards[q].Rel(name) }

// Router returns the named relation's routing dictionary: first-column
// value → dense ID in source order, the group-ID order the shard-local
// merges emit in. It is empty (Len 0) when the snapshot has one shard
// (no routing happens) or the relation has no tuples.
func (s *Snapshot) Router(name string) rel.FrozenDict { return rel.FreezeDict(s.routers[name]) }
