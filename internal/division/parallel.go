package division

import (
	"fmt"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// ParallelHash is hash division on the worker pool: R's ID columns
// are routed by group ID (exec.PartOf), so every candidate group lives
// in exactly one partition, and each partition runs the hash-division
// kernel (DivisorTable.divideBatches) against the shared read-only
// divisor table. Per-partition results concatenate in partition order,
// which makes the output deterministic for a fixed worker count and
// set-equal to the sequential Hash result for every worker count; the
// Stats equal Hash's. Outside its tests only the benchmark's routed
// division probe calls it.
type ParallelHash struct {
	// Workers is the goroutine pool size; values <= 0 mean one worker
	// per CPU.
	Workers int
}

// Name implements Algorithm.
func (ParallelHash) Name() string { return "parallel-hash" }

// Divide implements Algorithm.
func (p ParallelHash) Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats) {
	checkInputs(r, s)
	workers := exec.Workers(p.Workers)
	if workers <= 1 {
		// One worker cannot beat the sequential algorithm; skip the
		// partitioning overhead entirely.
		return Hash{}.Divide(r, s, sem)
	}
	dt := NewDivisorTable(s)
	// A small multiple of the worker count, so skewed partitions
	// balance across workers; it depends only on the worker count,
	// which keeps the merge order deterministic.
	parts := min(4*workers, 256)
	ids, dict := r.IDColumns()
	cols := make([][][]uint32, parts) // per partition: group and element IDs
	for q := range cols {
		cols[q] = make([][]uint32, 2)
	}
	for row, g := range ids[0] {
		q := exec.PartOf(g, parts)
		cols[q][0] = append(cols[q][0], g)
		cols[q][1] = append(cols[q][1], ids[1][row])
	}
	keys := make([][]rel.Value, parts)
	per := make([]Stats, parts)
	exec.Run(workers, parts, func(q int) {
		if len(cols[q][0]) == 0 {
			return
		}
		var b rel.Batch
		b.MakeView(cols[q], dict)
		b.SliceView(cols[q], 0, len(cols[q][0]))
		keys[q], per[q] = dt.divideBatches(&oneBatch{&b}, sem)
	})
	// All partitions are resident at once, so their memory adds up.
	var st Stats
	for _, ps := range per {
		st.Comparisons += ps.Comparisons
		st.Probes += ps.Probes
		st.TuplesRead += ps.TuplesRead
		st.MaxMemoryTuples += ps.MaxMemoryTuples
	}
	return hashResult(keys, st, s)
}

// oneBatch is a cursor over a single batch.
type oneBatch struct{ b *rel.Batch }

func (c *oneBatch) NextBatch() (*rel.Batch, bool) {
	b := c.b
	c.b = nil
	return b, b != nil
}

// DivisorTable is the shared read-only divisor dictionary of one hash
// division: every divisor value gets a dense slot (its interned ID),
// so per-shard workers probe integers and mark bitmap bits without
// touching shared mutable state. Hash and ParallelHash build one per
// call, and so does shard.Divide, the one caller of
// DivideShardBatches.
type DivisorTable struct {
	slots *rel.Interner
	need  int
	words int
}

// NewDivisorTable interns the divisor set. S must be unary.
func NewDivisorTable(s *rel.Relation) *DivisorTable {
	if s.Arity() != 1 {
		panic(fmt.Sprintf("division: S has arity %d, want 1", s.Arity()))
	}
	slots := rel.NewInterner()
	for _, t := range s.Tuples() {
		slots.Intern(t[0])
	}
	return &DivisorTable{slots: slots, need: slots.Len(), words: (slots.Len() + 63) / 64}
}

// DivideShardBatches runs the Graefe bitmap scheme on one shard of the
// dividend and returns the set of group keys that qualify under the
// semantics. The shard arrives as columnar batches of (group, element)
// ID columns, all of one dictionary, and both probes run through flat
// slices indexed by those IDs — after the first occurrence of a group
// or element value, a row costs two array loads instead of two
// value-keyed dictionary probes. Correctness requires the shard to
// hold its groups whole — every tuple of a qualifying group must flow
// through the same call — which is exactly the invariant hash
// partitioning on the group key establishes. Concurrent calls are
// safe: the divisor table is read-only and the slices are call-local.
func (dt *DivisorTable) DivideShardBatches(shard rel.BatchCursor, sem Semantics) (map[rel.Value]bool, Stats) {
	keys, st := dt.divideBatches(shard, sem)
	qualified := make(map[rel.Value]bool, len(keys))
	for _, v := range keys {
		qualified[v] = true
	}
	return qualified, st
}

// divideBatches is the one hash-division kernel, shared by Hash,
// ParallelHash and DivideShardBatches: the Graefe bitmap scheme over
// (group, element) ID batches of one dictionary; a stream whose batches
// switch dictionaries panics. It returns the qualifying group keys in
// first-occurrence order; the stats cover the dividend only.
func (dt *DivisorTable) divideBatches(shard rel.BatchCursor, sem Semantics) ([]rel.Value, Stats) {
	var st Stats
	var groups []*divGroup
	var d *rel.Interner
	var groupOf []int32 // by group ID: 1 + its local index, 0 if unseen
	var slots []int32   // by element ID: divisor slot + 2, 1 if absent, 0 if unknown
	for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
		if b.Arity() != 2 {
			panic(fmt.Sprintf("division: R batch has arity %d, want 2", b.Arity()))
		}
		if d == nil {
			d = b.Dict()
		} else if b.Dict() != d {
			panic("division: the R batches switch dictionaries")
		}
		if n := d.Len(); len(slots) < n {
			groupOf = append(groupOf, make([]int32, n-len(groupOf))...)
			slots = append(slots, make([]int32, n-len(slots))...)
		}
		c0, c1 := b.Col(0), b.Col(1)
		for row := range c0 {
			st.TuplesRead++
			st.Probes++
			gi := groupOf[c0[row]] - 1
			if gi < 0 {
				gi = int32(len(groups))
				groupOf[c0[row]] = gi + 1
				groups = append(groups, &divGroup{rep: d.Value(c0[row]), seen: make([]uint64, dt.words)})
			}
			g := groups[gi]
			st.Probes++
			s := slots[c1[row]]
			if s == 0 {
				if slot, ok := dt.slots.ID(d.Value(c1[row])); ok {
					s = int32(slot) + 2
				} else {
					s = 1
				}
				slots[c1[row]] = s
			}
			if s >= 2 {
				g.mark(uint32(s - 2))
			} else {
				g.extras++
			}
		}
	}
	st.MaxMemoryTuples = len(groups) + len(groups)*dt.words
	var qualified []rel.Value
	for _, g := range groups {
		if g.hits != dt.need {
			continue
		}
		if sem == Equality && g.extras > 0 {
			continue
		}
		qualified = append(qualified, g.rep)
	}
	return qualified, st
}
