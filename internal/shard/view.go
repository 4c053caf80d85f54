package shard

// This file implements the multi-shard relation view: the StoredRel
// that replays a relation's placement log across its shard-local
// relations, in global insertion order. One implementation serves both
// backends — the live writer's uncommitted view and a published
// snapshot — because a view resolves everything it needs (log prefix,
// per-shard relation handles, frozen router) at construction and holds
// no mutable state afterwards, so one view may be shared by concurrent
// readers.
//
// The view's scan is columnar: consecutive placement-log entries that
// landed in the same shard occupy consecutive local indices (a tuple's
// local position is the shard relation's length at insertion), so
// every maximal same-shard run of the log is a contiguous local range,
// and the batch cursor yields it as a zero-copy view batch over that
// shard's stored ID columns — no tuple decoding, no re-interning, no
// per-row work at all. Batches switch dictionaries at run boundaries
// (each shard owns its interners), which is legal for a BatchCursor;
// the vectorized operators resolve dictionaries per batch, and rows
// are decoded only by rel's one decode over batches.

import (
	"fmt"

	"radiv/internal/engine"
	"radiv/internal/rel"
)

// viewSource is what a multi-shard view resolves against: the Source
// anatomy plus the placement log. Both *Database and *Snapshot
// implement it.
type viewSource interface {
	Source
	log(name string) []place
}

func (s *Database) log(name string) []place { return s.placement[name] }
func (s *Snapshot) log(name string) []place { return s.placement[name] }

// newRelView resolves the named relation's multi-shard view: placement
// log, per-shard relation handles and the frozen router are fixed
// here, so, like rel.Cursor, a view of the live writer covers the
// tuples present at creation and must not outlive a mutation of the
// store. Views of a snapshot have no such caveat — nothing they
// reference can change.
func newRelView(src viewSource, name string) *relView {
	a, ok := src.Schema().Arity(name)
	if !ok {
		panic(fmt.Sprintf("shard: relation %q not in schema", name))
	}
	v := &relView{name: name, arity: a, log: src.log(name), router: src.Router(name)}
	v.rels = make([]*rel.Relation, src.NumShards())
	for q := range v.rels {
		v.rels[q] = src.ShardRel(q, name)
	}
	return v
}

// relView is the multi-shard rel.StoredRel.
type relView struct {
	name   string
	arity  int
	log    []place
	rels   []*rel.Relation // per-shard handles, resolved at construction
	router rel.FrozenDict
}

var _ rel.StoredRel = (*relView)(nil)

// Arity implements rel.StoredRel.
func (v *relView) Arity() int { return v.arity }

// Len implements rel.StoredRel: the placement log's length is the
// global cardinality (only accepted tuples are logged).
func (v *relView) Len() int { return len(v.log) }

// Contains implements rel.StoredRel: route by the first column, probe
// the owning shard only.
func (v *relView) Contains(t rel.Tuple) bool {
	if len(t) != v.arity {
		return false
	}
	if v.arity == 0 {
		return v.rels[0].Contains(t)
	}
	id, ok := v.router.ID(t[0])
	if !ok {
		return false
	}
	return v.rels[engine.PartOf(id, len(v.rels))].Contains(t)
}

// BatchScanSized implements rel.StoredRel: zero-copy columnar batches
// over the shard-local stored ID columns, walking the placement log in
// global insertion order even though the rows live in different
// shards. The yielded batches are views aliasing shard-local relation
// storage — read-only, valid until the next NextBatch call, their
// Release a no-op — and carry the owning shard's dictionaries.
func (v *relView) BatchScanSized(size int) rel.BatchCursor {
	if size < 1 {
		size = rel.BatchCap
	}
	c := &shardBatchCursor{log: v.log, size: size}
	c.cols = make([][][]uint32, len(v.rels))
	c.views = make([]rel.Batch, len(v.rels))
	for q, r := range v.rels {
		cols, dict := r.IDColumns()
		c.cols[q] = cols
		c.views[q].MakeView(cols, dict)
	}
	return c
}

// shardBatchCursor yields view batches over maximal same-shard runs of
// the placement log, capped at the batch size. It keeps one view batch
// per shard (bound to that shard's columns and dictionaries) and
// re-slices it per run, so the previous batch is invalidated by the
// next NextBatch — exactly the ownership contract.
type shardBatchCursor struct {
	log   []place
	size  int
	i     int
	cols  [][][]uint32 // per-shard stored ID columns
	views []rel.Batch  // per-shard view batch, re-sliced per run
}

// NextBatch implements rel.BatchCursor.
func (c *shardBatchCursor) NextBatch() (*rel.Batch, bool) {
	if c.i >= len(c.log) {
		return nil, false
	}
	p := c.log[c.i]
	lo := int(p.idx)
	hi := lo + 1
	c.i++
	for c.i < len(c.log) && hi-lo < c.size {
		nx := c.log[c.i]
		if nx.shard != p.shard || int(nx.idx) != hi {
			break
		}
		hi++
		c.i++
	}
	b := &c.views[p.shard]
	b.SliceView(c.cols[p.shard], lo, hi)
	return b, true
}
