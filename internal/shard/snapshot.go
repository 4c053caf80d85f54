package shard

// This file is the sealed side of the partition: Snapshot is every
// shard's database, their one dictionary, the routers and the
// placement logs, as of the Publish that produced it. It has no method
// through which a mutation could reach it, so any number of goroutines
// may run the operators on one snapshot.

import "radiv/internal/rel"

// Snapshot is a sealed partition: one rel.Database per shard, all over
// one dictionary, the per-relation routers, and the placement logs that
// replay source order. It is what Divide, ContainmentJoin and
// EqualityJoin read.
//
// All methods are safe for unlimited concurrent readers. The relations
// ShardRel hands out are sealed: mutating one is a contract violation
// the quiescence analyzer flags statically.
type Snapshot struct {
	schema    rel.Schema
	dict      *rel.Interner // every shard's; sealed
	shards    []*rel.Database
	routers   map[string][]uint32 // nil map when single-shard
	placement map[string][]place  // nil map when single-shard
}

// NumShards returns the shard count.
func (s *Snapshot) NumShards() int { return len(s.shards) }

// ShardRel returns shard q's sealed local relation for name: read-only
// and safe for concurrent readers.
//
//radivvet:ignore callerowned ShardRel is the shard-local operators' read accessor — the sealed relation is immutable
func (s *Snapshot) ShardRel(q int, name string) *rel.Relation { return s.shards[q].Rel(name) }
