package shard

// This file reads a relation of a sealed partition in source order:
// the broadcast side of every multi-shard operator (Divide's divisor,
// the set joins' S) is read this way, in the order the sequential
// algorithms read it.
//
// The scan is columnar: consecutive placement-log entries that landed
// in the same shard occupy consecutive local indices (a tuple's local
// position is the count of rows routed to its shard before it), so
// every maximal same-shard run of the log is a contiguous local range,
// and the batch cursor yields it as a zero-copy view batch over that
// shard's stored ID columns — no tuple decoding, no re-interning, no
// per-row work at all. Every batch carries the partition's one
// dictionary, so a consumer reads the IDs as they stand.

import "radiv/internal/rel"

// scan returns the named relation's rows in source order, in batches
// of at most rel.BatchCap rows. The yielded batches are views aliasing
// shard-local relation storage — read-only and valid until the next
// NextBatch call — and carry the partition's dictionary. With one shard it is that shard's own batch scan.
func (s *Snapshot) scan(name string) rel.BatchCursor {
	if len(s.shards) == 1 {
		return s.shards[0].Rel(name).BatchScan()
	}
	c := &shardBatchCursor{log: s.placement[name], size: rel.BatchCap}
	c.cols = make([][][]uint32, len(s.shards))
	c.views = make([]rel.Batch, len(s.shards))
	for q := range s.shards {
		cols, dict := s.ShardRel(q, name).IDColumns()
		c.cols[q] = cols
		c.views[q].MakeView(cols, dict)
	}
	return c
}

// shardBatchCursor yields view batches over maximal same-shard runs of
// the placement log, capped at the batch size. It keeps one view batch
// per shard (bound to that shard's columns) and
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
