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
// there is one run per S position, its pairs tagged with the R group's
// global rank for the within-probe order.

// ShardPairs is one shard's join result in interned-ID space. Pair i is
// (R[i], S[i]): R[i] is the R group key's ID in the dictionary of the
// batches GroupsFromBatches grouped — the shard-local relation's own
// dictionary when fed by its scan — and S[i] is the S group's position
// in the broadcast list, which is its ID in any dictionary holding the
// S keys in list order. Run j is the pairs [Start[j], Start[j+1]).
// Nothing in it is a rel.Value: the merge hands runs to
// Relation.AddBatch as view batches over these columns.
type ShardPairs struct {
	R, S []uint32
	// Rank is parallel to R and S in ShardEquality's result (the R
	// group's global rank) and nil in ShardContainment's.
	Rank  []uint32
	Start []int
}

// ShardContainment runs the signature nested-loop containment join of
// one R shard against the full S group list; r must come from
// GroupsFromBatches. There is one run per R group, in r's order, and
// within a run the pairs are in S order — exactly what
// SignatureContainment would emit while that group was the outer tuple
// — so a merge that walks R groups in global first-occurrence order
// and concatenates their runs reproduces the sequential emission byte
// for byte. The signature filter reads a flat copy of the S signatures
// rather than chasing one group pointer per candidate. Concurrent
// calls on disjoint shards are safe: both group lists are read-only.
func ShardContainment(r, s []*Group) (ShardPairs, Stats) {
	var st Stats
	sigs := make([]uint64, len(s))
	for si, gs := range s {
		sigs[si] = gs.sig
	}
	out := ShardPairs{Start: make([]int, 1, len(r)+1)}
	for _, gr := range r {
		absent := ^gr.sig
		for si, sig := range sigs {
			if sig&absent != 0 {
				continue // a bit of D is missing from B: cannot contain
			}
			st.Verifications++
			if gr.ContainsAll(s[si], &st.Comparisons) {
				out.R = append(out.R, gr.keyID)
				out.S = append(out.S, uint32(si))
			}
		}
		out.Start = append(out.Start, len(out.R))
	}
	st.PairsConsidered = len(r) * len(s)
	return out, st
}

// ShardEquality runs the canonical-encoding hash equality join of one
// R shard against the full S group list: the shard's groups (from
// GroupsFromBatches) build a local index on a local dictionary, then
// every S group probes it. rank[i] is the global rank of r[i]; there is
// one run per S position, each ascending in rank (local insertion
// order respects global first-occurrence order), so the cross-shard
// merge only has to interleave sorted runs to reproduce the sequential
// HashEquality emission: S-major, R insertion order within a probe.
func ShardEquality(r, s []*Group, rank []uint32) (ShardPairs, Stats) {
	var st Stats
	dict := NewDict()
	index := make(map[string][]int32, len(r)) // canonical key -> positions in r
	for ri, gr := range r {
		st.Probes++
		k := dict.Key(gr)
		index[k] = append(index[k], int32(ri))
	}
	out := ShardPairs{Start: make([]int, 1, len(s)+1)}
	for si, gs := range s {
		st.Probes++
		// An element no local R-set has makes equality impossible here.
		if k, ok := dict.ProbeKey(gs); ok {
			for _, ri := range index[k] {
				st.PairsConsidered++
				out.R = append(out.R, r[ri].keyID)
				out.S = append(out.S, uint32(si))
				out.Rank = append(out.Rank, rank[ri])
			}
		}
		out.Start = append(out.Start, len(out.R))
	}
	return out, st
}
