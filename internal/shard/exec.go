package shard

// This file is the shard-aware execution layer: division and the set
// joins run shard-locally — each shard's worker touches only its own
// store plus read-only broadcast state — and a sequential merge walks
// the routing dictionary's group IDs in order. Because a relation's
// router assigns IDs in first-occurrence order, gid order is exactly
// the group order the sequential algorithms emit in, so the merged
// result is byte-identical to the single-store run at every shard
// count. With one shard every entry point delegates straight to the
// sequential algorithm on the underlying store: no routing happened at
// load time and none is paid here.
//
// The set joins never leave interned-ID space between the stored
// columns and the result: the broadcast side is grouped straight off
// the store view's batch scan, each shard's pairs come back as two ID
// columns cut into runs (setjoin.ShardPairs), and the merge feeds the
// runs to the result's AddBatch as view batches (see shardedSetJoin).
// None of them runs under a query governor: the executor in
// internal/plan runs every plan, division included, over a sharded
// store's views, and these entry points are library calls.
//
// Every entry point takes a Source: the live *Database (the writer's
// uncommitted view, safe when nothing is concurrently mutating) or a
// published *Snapshot (safe unconditionally — run on snapshot N while
// the writer loads N+1). Either way the source is only read, and the
// results are byte-identical: a snapshot scans, routes and merges
// exactly like the live store that published it.

import (
	"fmt"
	"time"

	"radiv/internal/division"
	"radiv/internal/engine"
	"radiv/internal/rel"
	"radiv/internal/setjoin"
)

// Stats reports the cost anatomy of one sharded run: what each shard
// held and what the merge cost.
type Stats struct {
	// ShardResident is, per shard, the peak number of auxiliary
	// entries (group states, bitmap words, index entries) the
	// shard-local work held — the per-shard resident memory the ST3
	// experiment plots.
	ShardResident []int
	// Merged counts the entries the gid-ordered merge phase examined.
	Merged int
	// MergeTime is the wall time of the merge phase alone — the
	// coordination overhead sharding adds on top of the shard-local
	// work. Zero for single-shard runs, which have no merge.
	MergeTime time.Duration
}

// arityOf checks a relation's arity with a shard-prefixed panic,
// through the same rel.CheckView the evaluators use.
func arityOf(db Source, name string, want int) {
	rel.CheckView(db, name, want, "shard")
}

// Divide computes rName ÷ sName shard-locally: the divisor is
// materialized once into a shared read-only dictionary
// (division.DivisorTable), each shard runs the Graefe bitmap scheme
// over its local dividend batch scan on the worker pool
// (engine.StreamShardedBatchesGov), and the merge emits qualifying
// groups in the dividend router's gid order — the sequential Hash
// emission order, so the result is byte-identical to division.Hash on
// the merged relations at every shard count. workers <= 0 means one
// per CPU.
func Divide(db Source, rName, sName string, sem division.Semantics, workers int) (*rel.Relation, Stats) {
	arityOf(db, rName, 2)
	arityOf(db, sName, 1)
	if db.NumShards() == 1 {
		sRel := db.ShardRel(0, sName)
		out, st := division.Hash{}.Divide(db.ShardRel(0, rName), sRel, sem)
		// Hash's MaxMemoryTuples includes the divisor table; subtract
		// it so the figure counts the same thing DivideShardBatches reports
		// for multi-shard runs (group state only — the divisor is
		// broadcast, not shard-local) and the column is comparable
		// across shard counts.
		return out, Stats{ShardResident: []int{st.MaxMemoryTuples - sRel.Len()}}
	}
	sRel, _ := rel.Materialized(db, sName) // broadcast side, read-only
	dt := division.NewDivisorTable(sRel)
	n := db.NumShards()
	// Shard-local dividends flow as columnar batches straight off the
	// relations' stored ID columns: no tuple decoding, no re-interning —
	// each worker runs the vectorized bitmap scheme on flat uint32
	// columns.
	cursors := make([]rel.BatchCursor, n)
	for q := range cursors {
		cursors[q] = db.ShardRel(q, rName).BatchScan()
	}
	qualified := make([]map[rel.Value]bool, n)
	resident := make([]int, n)
	engine.Executor{Workers: workers}.StreamShardedBatchesGov(nil, cursors, func(q int, shard rel.BatchCursor) {
		var st division.Stats
		qualified[q], st = dt.DivideShardBatches(shard, sem)
		resident[q] = st.MaxMemoryTuples
	})
	st := Stats{ShardResident: resident}
	mergeStart := time.Now()
	rt := db.Router(rName)
	out := rel.NewRelationSized(1, rt.Len())
	for gid := 0; gid < rt.Len(); gid++ {
		st.Merged++
		v := rt.Value(uint32(gid))
		if qualified[engine.PartOf(uint32(gid), n)][v] {
			out.Add(rel.Tuple{v})
		}
	}
	st.MergeTime = time.Since(mergeStart)
	return out, st
}

// ContainmentJoin computes the set-containment join rName ⋈[B⊇D] sName
// shard-locally: the S side is grouped once straight off its batch
// scan (broadcast, read-only), each shard joins its local R groups
// against it with the signature nested loop, and the merge concatenates
// each group's run of pairs in the R router's gid order — reproducing
// the sequential setjoin.SignatureContainment emission byte for byte
// at every shard count. workers <= 0 means one per CPU.
func ContainmentJoin(db Source, rName, sName string, workers int) (*rel.Relation, Stats) {
	return shardedSetJoin(db, rName, sName, workers, true)
}

// EqualityJoin computes the set-equality join rName ⋈[B=D] sName
// shard-locally: each shard builds a canonical-key index over its
// local R groups, the broadcast S side probes every shard's index, and
// the merge interleaves per-probe results by the R groups' global gid
// rank — reproducing the sequential setjoin.HashEquality emission
// (S-major, R insertion order within a probe) byte for byte at every
// shard count. workers <= 0 means one per CPU.
func EqualityJoin(db Source, rName, sName string, workers int) (*rel.Relation, Stats) {
	return shardedSetJoin(db, rName, sName, workers, false)
}

// groupsHeld counts the entries a shard's group list pins: one per
// group plus its elements — the R-side state of that shard's join.
func groupsHeld(gs []*setjoin.Group) int {
	held := 0
	for _, g := range gs {
		held += 1 + len(g.Elems)
	}
	return held
}

// shardedSetJoin is both set joins. Between the group builders and the
// result relation the data stays interned IDs: each shard returns its
// pairs as two ID columns (setjoin.ShardPairs) — the R key in the
// shard-local relation's dictionary, the S key as its position in the
// broadcast group list — and the merge hands runs of those columns to
// the result's AddBatch as view batches, in the sequential algorithm's
// emission order. AddBatch translates a row's R key before its S key,
// the order Add interns a pair in, so the result's dictionary comes out
// in the sequential order too.
func shardedSetJoin(db Source, rName, sName string, workers int, containment bool) (*rel.Relation, Stats) {
	arityOf(db, rName, 2)
	arityOf(db, sName, 2)
	if db.NumShards() == 1 {
		rG, sG := setjoin.Groups(db.ShardRel(0, rName)), setjoin.Groups(db.ShardRel(0, sName))
		var out *rel.Relation
		if containment {
			out, _ = setjoin.SignatureContainment{}.Join(rG, sG)
		} else {
			out, _ = setjoin.HashEquality{}.Join(rG, sG)
		}
		return out, Stats{ShardResident: []int{groupsHeld(rG)}}
	}
	n := db.NumShards()
	// Broadcast side, read-only: no copy of S is made.
	sGroups := setjoin.GroupsFromBatches(db.View(sName).BatchScanSized(rel.BatchCap))
	// A shard meets its groups in ascending gid order, so the i-th gid
	// the router sends to shard q is the rank of q's i-th local group.
	rt := db.Router(rName)
	ranks := make([][]uint32, n)
	for gid := 0; gid < rt.Len(); gid++ {
		q := engine.PartOf(uint32(gid), n)
		ranks[q] = append(ranks[q], uint32(gid))
	}
	pairs := make([]setjoin.ShardPairs, n)
	resident := make([]int, n)
	engine.Executor{Workers: workers}.Run(n, func(q int) {
		// Shard-local R sides flow as columnar batches straight off the
		// relations' stored ID columns into the group builder — no tuple
		// decoding on the grouping pass, and each worker's translation
		// cache only reads the shard's sealed dictionaries.
		rGroups := setjoin.GroupsFromBatches(db.ShardRel(q, rName).BatchScan())
		if len(rGroups) != len(ranks[q]) {
			panic(fmt.Sprintf("shard: shard %d holds %d groups of %s, its router sends %d there", q, len(rGroups), rName, len(ranks[q])))
		}
		resident[q] = groupsHeld(rGroups)
		if containment {
			pairs[q], _ = setjoin.ShardContainment(rGroups, sGroups)
		} else {
			pairs[q], _ = setjoin.ShardEquality(rGroups, sGroups, ranks[q])
		}
	})
	st := Stats{ShardResident: resident}
	mergeStart := time.Now()
	// The pairs' S column counts positions in sGroups: a dictionary
	// holding the S keys in that order decodes it.
	sKeys := rel.NewInterner()
	for _, g := range sGroups {
		sKeys.Intern(g.Key)
	}
	// One view batch per shard over its pair columns, re-sliced per run.
	// The result is sized exactly, so the splice never grows it.
	total := 0
	cols := make([][][]uint32, n)
	views := make([]rel.Batch, n)
	for q, p := range pairs {
		total += len(p.R)
		cols[q] = [][]uint32{p.R, p.S}
		views[q].MakeView(cols[q], db.ShardRel(q, rName).Interner())
		views[q].SetDict(1, sKeys)
	}
	out := rel.NewRelationSized(2, total)
	emit := func(q, lo, hi int) {
		views[q].SliceView(cols[q], lo, hi)
		out.AddBatch(&views[q])
	}
	next := make([]int, n) // per shard: its next run (R-major) or pair (S-major)
	if containment {
		// R-major merge: walk the dividend router's gids in order and
		// splice in each group's run from its owning shard.
		for gid := 0; gid < rt.Len(); gid++ {
			st.Merged++
			q := engine.PartOf(uint32(gid), n)
			emit(q, pairs[q].Start[next[q]], pairs[q].Start[next[q]+1])
			next[q]++
		}
	} else {
		// S-major merge: per probe position, interleave the shards'
		// rank-ascending runs into global rank order.
		for si := range sGroups {
			for {
				bq := -1
				for q, p := range pairs {
					if next[q] < p.Start[si+1] && (bq < 0 || p.Rank[next[q]] < pairs[bq].Rank[next[bq]]) {
						bq = q
					}
				}
				if bq < 0 {
					break
				}
				st.Merged++
				emit(bq, next[bq], next[bq]+1)
				next[bq]++
			}
		}
	}
	out.DropBatchCache() // the result must not pin the shards' dictionaries
	st.MergeTime = time.Since(mergeStart)
	return out, st
}
