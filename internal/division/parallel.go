package division

import (
	"fmt"

	"radiv/internal/engine"
	"radiv/internal/rel"
)

// ParallelHash is hash division over the partitioned parallel
// executor of internal/engine: R is sharded by the interned ID of the
// group key, so every candidate group lives in exactly one partition
// and partitions divide independently against the shared divisor
// dictionary. Per-partition results concatenate in partition order,
// which makes the output deterministic for a fixed worker count and
// set-equal to the sequential Hash result for every worker count.
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
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		// One worker cannot beat the sequential algorithm; skip the
		// partitioning overhead entirely.
		return Hash{}.Divide(r, s, sem)
	}

	// Build phase (sequential): divisor dictionary and partition map.
	var build Stats
	slots := rel.NewInterner() // S value -> dense slot, shared read-only
	for _, t := range s.Tuples() {
		build.TuplesRead++
		build.Probes++
		slots.Intern(t[0])
	}
	need := slots.Len()
	words := (need + 63) / 64
	rt := r.Tuples()
	gids := rel.NewInterner() // group value -> ID; drives partitioning
	parts := ex.PartitionCount()
	partIdx := engine.PartitionByFirst(gids, rt, parts)

	// Work phase: each partition runs the Graefe bitmap scheme on its
	// shard, probing only the shared read-only dictionaries.
	qualified := make([][]rel.Value, parts)
	partStats := make([]Stats, parts)
	ex.Run(parts, func(q int) {
		st := &partStats[q]
		local := make(map[uint32]*divGroup) // global group ID -> state
		var order []uint32
		for _, i := range partIdx[q] {
			t := rt[i]
			st.TuplesRead++
			st.Probes++
			gid, _ := gids.ID(t[0]) // present: interned during partitioning
			g := local[gid]
			if g == nil {
				g = &divGroup{rep: t[0], seen: make([]uint64, words)}
				local[gid] = g
				order = append(order, gid)
			}
			st.Probes++
			if slot, ok := slots.ID(t[1]); ok {
				g.mark(slot)
			} else {
				g.extras++
			}
		}
		st.MaxMemoryTuples = len(local) + len(local)*words
		for _, gid := range order {
			g := local[gid]
			if g.hits != need {
				continue
			}
			if sem == Equality && g.extras > 0 {
				continue
			}
			qualified[q] = append(qualified[q], g.rep)
		}
	})

	// Merge phase: concatenate in partition order; sum the stats. All
	// partitions are resident at once, so memory adds up (plus the
	// shared divisor table).
	st := build
	st.MaxMemoryTuples = s.Len()
	for q := range partStats {
		st.Comparisons += partStats[q].Comparisons
		st.Probes += partStats[q].Probes
		st.TuplesRead += partStats[q].TuplesRead
		st.MaxMemoryTuples += partStats[q].MaxMemoryTuples
	}
	out := rel.NewRelation(1)
	for _, reps := range qualified {
		for _, rep := range reps {
			out.Add(rel.Tuple{rep})
		}
	}
	return out, st
}

// DivisorTable is the shared read-only divisor dictionary of one hash
// division: every divisor value gets a dense slot (its interned ID),
// so per-shard workers probe integers and mark bitmap bits without
// touching shared mutable state. It is the build-phase artifact the
// shard-local division in internal/shard divides against.
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
// ID columns, and both probes run through flat per-dictionary
// translation caches — after the first occurrence of a group or element
// value, a row costs two array loads instead of two value-keyed
// dictionary probes. Correctness requires the shard to hold its groups
// whole — every tuple of a qualifying group must flow through the same
// call — which is exactly the invariant hash partitioning on the group
// key establishes. Concurrent calls are safe: the divisor table is
// read-only and the caches are call-local.
func (dt *DivisorTable) DivideShardBatches(shard rel.BatchCursor, sem Semantics) (map[rel.Value]bool, Stats) {
	keys, st := dt.divideBatches(shard, sem)
	qualified := make(map[rel.Value]bool, len(keys))
	for _, v := range keys {
		qualified[v] = true
	}
	return qualified, st
}

// divideBatches is the one hash-division kernel, shared by
// DivideShardBatches and the sequential Hash: the Graefe bitmap scheme
// over (group, element) ID batches. It returns the qualifying group
// keys in first-occurrence order; the stats cover the dividend only.
func (dt *DivisorTable) divideBatches(shard rel.BatchCursor, sem Semantics) ([]rel.Value, Stats) {
	var st Stats
	var groups []*divGroup
	groupOf := rel.NewIDMap(rel.NewInterner()) // group value -> dense local index
	slotOf := make(map[*rel.Interner][]int32)  // element id -> divisor slot+2, 1 = absent
	for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
		if b.Arity() != 2 {
			panic(fmt.Sprintf("division: R batch has arity %d, want 2", b.Arity()))
		}
		c0, c1 := b.Col(0), b.Col(1)
		d0, d1 := b.Dict(0), b.Dict(1)
		slots := slotOf[d1]
		if len(slots) < d1.Len() {
			grown := make([]int32, d1.Len())
			copy(grown, slots)
			slots = grown
			slotOf[d1] = slots
		}
		for row := range c0 {
			st.TuplesRead++
			st.Probes++
			gi := groupOf.Intern(d0, c0[row])
			if int(gi) == len(groups) {
				groups = append(groups, &divGroup{rep: d0.Value(c0[row]), seen: make([]uint64, dt.words)})
			}
			g := groups[gi]
			st.Probes++
			s := slots[c1[row]]
			if s == 0 {
				if slot, ok := dt.slots.ID(d1.Value(c1[row])); ok {
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
		b.Release()
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
