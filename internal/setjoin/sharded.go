package setjoin

// This file provides the shard-local building blocks of the sharded
// set joins in internal/shard: one R shard joins against the full
// (broadcast) S side and returns its result pairs as two columns of
// interned IDs, cut into runs so that a gid-ordered merge across shards
// reproduces the sequential algorithms' emission sequences byte for
// byte. The two joins cut their output differently because their
// sequential emission orders differ: the signature containment join is
// R-major (outer loop over R groups), so there is one run per R group;
// the hash equality join is S-major (probe loop over S groups), so
// there is one run per S position, ascending in the R groups' global
// rank.

// ShardPairs is one shard's join result in interned-ID space. Pair i is
// (R[i], S[i]): R[i] is the R group's global rank, the rank argument of
// the join that made it (a gid of the relation's router); S[i] is the S
// group's position in the broadcast list, which is its gid in any list
// of the S keys in first-occurrence order. Run j is the pairs
// [Start[j], Start[j+1]). Nothing in it is a rel.Value: the merge maps
// both columns to the keys' IDs and hands them to Relation.AddBatch as
// a view batch.
type ShardPairs struct {
	R, S  []uint32
	Start []int
}

// ShardContainment runs the containment join of one R shard against
// the full S group list, after aligning S to the shard's element
// dictionary; r must come from GroupsFromBatches, and rank[i] is the
// global rank of r[i]. It is the inverted file probe of PSJ-style set
// joins: an index over r's runs lists the R groups holding each
// element, each S group considers only the groups holding its rarest
// element — Σ_{s∈S} min_{e∈s} |R_e| pairs,
// never more than the signature nested loop's |R|·|S| — and each
// candidate passes the signature filter and containsAll. The pairs
// come out S-major; a stable counting sort by R position makes them
// R-major, one run per R group in r's order with S ascending inside
// it — exactly what SignatureContainment would emit while that group
// was the outer tuple — so a merge that walks R groups in global
// first-occurrence order and concatenates their runs reproduces the
// sequential emission byte for byte. Concurrent calls on disjoint
// shards are safe: both group lists and their dictionaries are only
// read, and the aligned copy of S and the index are the call's own.
func ShardContainment(r, s []*Group, rank []uint32) (ShardPairs, Stats) {
	var st Stats
	x := newPostings(r)
	st.Probes = len(x.pos)
	sigs := make([]uint64, len(r))
	for ri, gr := range r {
		sigs[ri] = gr.sig
	}
	type pair struct{ r, s uint32 }
	var found []pair
	start := make([]int, len(r)+1)
	for si, gs := range align(r, s) {
		st.Probes += len(gs.ids)
		for _, ri := range x.of(x.rarest(gs.ids)) {
			st.PairsConsidered++
			if gs.sig&^sigs[ri] != 0 {
				continue // a bit of D is missing from B: cannot contain
			}
			st.Verifications++
			if containsAll(r[ri].ids, gs.ids, &st.Comparisons) {
				found = append(found, pair{uint32(ri), uint32(si)})
				start[ri+1]++
			}
		}
	}
	for ri := range r {
		start[ri+1] += start[ri]
	}
	// start[ri] is each run's write cursor and ends where the next run
	// begins, so one shift puts every start back, as in newPostings.
	out := ShardPairs{R: make([]uint32, len(found)), S: make([]uint32, len(found)), Start: start}
	for _, p := range found {
		out.R[start[p.r]], out.S[start[p.r]] = rank[p.r], p.s
		start[p.r]++
	}
	copy(start[1:], start)
	start[0] = 0
	return out, st
}

// ShardEquality runs the canonical-encoding hash equality join of one
// R shard against the full S group list: the shard's groups (from
// GroupsFromBatches) build a local index keyed by their ID runs, then
// every S group, aligned to the shard's element dictionary, probes it.
// rank[i] is the global rank of r[i]; there is
// one run per S position, each ascending in rank (local insertion
// order respects global first-occurrence order), so the cross-shard
// merge only has to interleave sorted runs to reproduce the sequential
// HashEquality emission: S-major, R insertion order within a probe.
func ShardEquality(r, s []*Group, rank []uint32) (ShardPairs, Stats) {
	var st Stats
	index := keyIndex(r, &st.Probes)
	out := ShardPairs{Start: make([]int, 1, len(s)+1)}
	var buf []byte
	for si, gs := range align(r, s) {
		st.Probes++
		buf = runKey(buf[:0], gs.ids)
		for _, ri := range index[string(buf)] {
			st.PairsConsidered++
			out.R = append(out.R, rank[ri])
			out.S = append(out.S, uint32(si))
		}
		out.Start = append(out.Start, len(out.R))
	}
	return out, st
}
