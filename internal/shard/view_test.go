package shard

import (
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

// TestShardViewNativeBatchScan pins the broadcast side's read: at every
// shard count and batch cap scan yields the source's rows in source
// order, each batch a read-only view over one shard's stored ID
// columns (not a copy) whose dictionaries decode its rows — run
// boundaries switch dictionaries, since each shard owns its own.
func TestShardViewNativeBatchScan(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, n := range []int{1, 2, 4} {
			s := FromStore(d, n).Publish()
			for _, name := range []string{"R", "S"} {
				want := d.Rel(name).Tuples()
				for _, size := range []int{1, 3, 64, rel.BatchCap} {
					bc := s.scan(name)
					if c, ok := bc.(*shardBatchCursor); ok {
						c.size = size
					} else if n > 1 || size != rel.BatchCap {
						continue // one shard: the relation's own scan, at its own cap
					}
					rows := 0
					var buf rel.Tuple
					for b, more := bc.NextBatch(); more; b, more = bc.NextBatch() {
						if b.Len() < 1 || b.Len() > size {
							t.Fatalf("seed %d shards %d %s size %d: batch of %d rows", seed, n, name, size, b.Len())
						}
						if n > 1 && !ownsColumns(s, name, b) {
							t.Fatalf("seed %d shards %d %s size %d: batch is not a view of a shard's columns", seed, n, name, size)
						}
						for r := 0; r < b.Len(); r++ {
							if rows >= len(want) {
								t.Fatalf("seed %d shards %d %s: scan longer than the relation", seed, n, name)
							}
							buf = b.Row(buf, r)
							if !buf.Equal(want[rows]) {
								t.Fatalf("seed %d shards %d %s size %d: row %d decodes %s want %s", seed, n, name, size, rows, buf, want[rows])
							}
							rows++
						}
					}
					if rows != len(want) {
						t.Fatalf("seed %d shards %d %s: %d rows scanned, %d in the source", seed, n, name, rows, len(want))
					}
				}
			}
		}
	}
}

// ownsColumns reports whether batch b's columns alias the stored ID
// columns of the shard-local relation whose dictionary it carries.
func ownsColumns(s *Snapshot, name string, b *rel.Batch) bool {
	for q := 0; q < s.NumShards(); q++ {
		r := s.ShardRel(q, name)
		if b.Arity() == 0 || b.Dict() != r.Interner() {
			continue
		}
		cols, _ := r.IDColumns()
		for i := range cols[0] {
			if &cols[0][i] == &b.Col(0)[0] {
				return true
			}
		}
	}
	return b.Arity() == 0
}
