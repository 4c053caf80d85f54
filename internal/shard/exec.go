package shard

// This file is the shard-aware execution layer: division and the set
// joins run shard-locally — each shard's worker touches only its own
// store plus read-only broadcast state — and a sequential merge walks
// the router's gids in order. Because a relation's router assigns
// gids in first-occurrence order, gid order is exactly the group order
// the sequential algorithms emit in, so the merged
// result is byte-identical to the single-store run at every shard
// count. With one shard no routing happened at load time and none is
// paid here: Divide runs division.Hash on the one store, ContainmentJoin
// runs setjoin.InvertedIndexContainment (the shard kernel over all of
// R) and EqualityJoin runs setjoin.HashEquality.
//
// The set joins never leave interned-ID space between the stored
// columns and the result: both sides are grouped into uint32 runs off
// batch scans over the partition's one dictionary, each task aligns S
// to its shard's R list by array lookups and verifies by merging runs,
// the pairs come back as ID columns cut into runs (setjoin.ShardPairs),
// and the merge gathers those into one AddBatch. The containment task probes each S set's rarest element
// through an inverted index over the shard's R groups, and cuts its
// pairs into the runs the signature nested loop would emit.
// The shard-local work runs one task per shard on the worker pool
// (exec.Run). None of it runs under a query governor: these entry
// points are library calls, not plans.
//
// Every entry point takes a sealed *Snapshot and only reads it, so any
// number of goroutines may run them on one snapshot.

import (
	"fmt"
	"time"

	"radiv/internal/division"
	"radiv/internal/exec"
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

// arityOf checks that the snapshot's schema holds the named relation
// at the arity the operator needs, panicking with the package prefix.
func arityOf(db *Snapshot, name string, want int) {
	a, ok := db.schema.Arity(name)
	if !ok {
		panic(fmt.Sprintf("shard: relation %q not in schema", name))
	}
	if a != want {
		panic(fmt.Sprintf("shard: relation %s has arity %d in database, the operator expects %d", name, a, want))
	}
}

// Divide computes rName ÷ sName shard-locally: the divisor is
// materialized once into a shared read-only dictionary
// (division.DivisorTable), each shard runs the Graefe bitmap scheme
// over its local dividend batch scan on the worker pool (exec.Run,
// one task per shard), and the merge emits qualifying
// groups in the dividend router's gid order — the sequential Hash
// emission order, so the result is byte-identical to division.Hash on
// the merged relations at every shard count. workers <= 0 means one
// per CPU.
func Divide(db *Snapshot, rName, sName string, sem division.Semantics, workers int) (*rel.Relation, Stats) {
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
	// Broadcast side, read-only: S's rows in source order, the order
	// division.Hash reads the divisor in, over a dictionary based on the
	// partition's, so the rows keep their IDs.
	sRel := rel.NewRelationOver(1, db.dict)
	sRel.Reserve(len(db.placement[sName]))
	c := db.scan(sName)
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		sRel.AddBatch(b)
	}
	dt := division.NewDivisorTable(sRel)
	n := db.NumShards()
	qualified := make([]map[rel.Value]bool, n)
	resident := make([]int, n)
	exec.Run(workers, n, func(q int) {
		// Shard-local dividends flow as columnar batches straight off
		// the relations' stored ID columns: no tuple decoding, no
		// re-interning — each worker runs the vectorized bitmap scheme
		// on flat uint32 columns.
		var st division.Stats
		qualified[q], st = dt.DivideShardBatches(db.ShardRel(q, rName).BatchScan(), sem)
		resident[q] = st.MaxMemoryTuples
	})
	st := Stats{ShardResident: resident}
	mergeStart := time.Now()
	rt := db.routers[rName]
	out := rel.NewRelationSized(1, len(rt))
	for gid, id := range rt {
		st.Merged++
		v := db.dict.Value(id)
		if qualified[exec.PartOf(uint32(gid), n)][v] {
			out.Add(rel.Tuple{v})
		}
	}
	st.MergeTime = time.Since(mergeStart)
	return out, st
}

// ContainmentJoin computes the set-containment join rName ⋈[B⊇D] sName
// shard-locally: the S side is grouped once straight off its batch
// scan (broadcast, read-only), each shard joins its local R groups
// against it with setjoin.ShardContainment — each S set probes the
// shard's R groups holding its rarest element — and the merge
// concatenates each group's run of pairs in the R router's gid order,
// reproducing the sequential setjoin.SignatureContainment emission byte
// for byte at every shard count. With one shard it is
// setjoin.InvertedIndexContainment, the same kernel over all of R.
// workers <= 0 means one per CPU.
func ContainmentJoin(db *Snapshot, rName, sName string, workers int) (*rel.Relation, Stats) {
	return shardedSetJoin(db, rName, sName, workers, true)
}

// EqualityJoin computes the set-equality join rName ⋈[B=D] sName
// shard-locally: each shard builds a canonical-key index over its
// local R groups, the broadcast S side probes every shard's index, and
// the merge interleaves per-probe results by the R groups' global gid
// rank — reproducing the sequential setjoin.HashEquality emission
// (S-major, R insertion order within a probe) byte for byte at every
// shard count. workers <= 0 means one per CPU.
func EqualityJoin(db *Snapshot, rName, sName string, workers int) (*rel.Relation, Stats) {
	return shardedSetJoin(db, rName, sName, workers, false)
}

// groupsHeld counts the entries a shard's group list pins: one per
// group plus its elements — the R-side state of that shard's join.
func groupsHeld(gs []*setjoin.Group) int {
	held := 0
	for _, g := range gs {
		held += 1 + g.Len()
	}
	return held
}

// shardedSetJoin is both set joins. Between the group builders and the
// result relation the data stays interned IDs: each shard returns its
// pairs as two ID columns (setjoin.ShardPairs) — the R group's router
// gid, which is its global rank, and the S key's position in the
// broadcast group list, which is its gid in S's router — and the merge
// gathers them, in the sequential algorithm's emission order, into two
// flat columns. The routers turn both into the keys' IDs in the
// partition's one dictionary, and the columns go to the result, whose
// dictionary is based on that one, as one view batch over it: the
// result keeps the IDs, as the sequential joins' results do.
func shardedSetJoin(db *Snapshot, rName, sName string, workers int, containment bool) (*rel.Relation, Stats) {
	arityOf(db, rName, 2)
	arityOf(db, sName, 2)
	if db.NumShards() == 1 {
		rG, sG := setjoin.Groups(db.ShardRel(0, rName)), setjoin.Groups(db.ShardRel(0, sName))
		var out *rel.Relation
		if containment {
			out, _ = setjoin.InvertedIndexContainment{}.Join(rG, sG)
		} else {
			out, _ = setjoin.HashEquality{}.Join(rG, sG)
		}
		return out, Stats{ShardResident: []int{groupsHeld(rG)}}
	}
	n := db.NumShards()
	// Broadcast side, read-only: no copy of S is made.
	sGroups := setjoin.GroupsFromBatches(db.scan(sName))
	// A shard meets its groups in ascending gid order, so the i-th gid
	// the router sends to shard q is the rank of q's i-th local group.
	// A relation with no tuples has no router.
	rt, sKeys := db.routers[rName], db.routers[sName]
	if len(sGroups) != len(sKeys) {
		panic(fmt.Sprintf("shard: %s has %d groups, its router %d keys", sName, len(sGroups), len(sKeys)))
	}
	ranks := make([][]uint32, n)
	for gid := range uint32(len(rt)) {
		q := exec.PartOf(gid, n)
		ranks[q] = append(ranks[q], gid)
	}
	pairs := make([]setjoin.ShardPairs, n)
	resident := make([]int, n)
	exec.Run(workers, n, func(q int) {
		// Shard-local R sides flow as columnar batches straight off the
		// relations' stored ID columns into the group builder — no tuple
		// decoding on the grouping pass, and the partition's sealed
		// dictionary is only read.
		rGroups := setjoin.GroupsFromBatches(db.ShardRel(q, rName).BatchScan())
		if len(rGroups) != len(ranks[q]) {
			panic(fmt.Sprintf("shard: shard %d holds %d groups of %s, its router sends %d there", q, len(rGroups), rName, len(ranks[q])))
		}
		resident[q] = groupsHeld(rGroups)
		if containment {
			pairs[q], _ = setjoin.ShardContainment(rGroups, sGroups, ranks[q])
		} else {
			pairs[q], _ = setjoin.ShardEquality(rGroups, sGroups, ranks[q])
		}
	})
	st := Stats{ShardResident: resident}
	mergeStart := time.Now()
	total := 0
	for _, p := range pairs {
		total += len(p.R)
	}
	cols := [][]uint32{make([]uint32, 0, total), make([]uint32, 0, total)}
	gather := func(q, lo, hi int) {
		cols[0] = append(cols[0], pairs[q].R[lo:hi]...)
		cols[1] = append(cols[1], pairs[q].S[lo:hi]...)
	}
	next := make([]int, n) // per shard: its next run (R-major) or pair (S-major)
	if containment {
		// R-major merge: walk the dividend router's gids in order and
		// take each group's run from its owning shard.
		for gid := range len(rt) {
			st.Merged++
			q := exec.PartOf(uint32(gid), n)
			gather(q, pairs[q].Start[next[q]], pairs[q].Start[next[q]+1])
			next[q]++
		}
	} else {
		// S-major merge: per probe position, interleave the shards'
		// rank-ascending runs into global rank order.
		for si := range sGroups {
			for {
				bq := -1
				for q, p := range pairs {
					if next[q] < p.Start[si+1] && (bq < 0 || p.R[next[q]] < pairs[bq].R[next[bq]]) {
						bq = q
					}
				}
				if bq < 0 {
					break
				}
				st.Merged++
				gather(bq, next[bq], next[bq]+1)
				next[bq]++
			}
		}
	}
	// The R column holds R's router gids and the S column S's: the
	// routers turn both into IDs in the partition's dictionary. The
	// result is sized exactly, so the one insert never grows it.
	for j := range total {
		cols[0][j], cols[1][j] = rt[cols[0][j]], sKeys[cols[1][j]]
	}
	var view rel.Batch
	view.MakeView(cols, db.dict)
	view.SliceView(cols, 0, total)
	out := rel.NewRelationOver(2, db.dict)
	out.Reserve(total)
	out.AddBatch(&view)
	st.MergeTime = time.Since(mergeStart)
	return out, st
}
