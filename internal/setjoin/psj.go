package setjoin

import (
	"radiv/internal/rel"
)

// PartitionedContainment is a main-memory adaptation of the
// Partitioned Set Join (PSJ) of Ramasamy, Patel, Naughton and Kaushik
// (VLDB 2000): the contained side (S) is assigned to a single
// partition by one designated element of each set, while the
// containing side (R) is replicated into every partition one of its
// elements hashes to; pairs are then verified partition-locally with
// the signature filter. Replication trades memory for locality; with
// P partitions the candidate space per S-group shrinks roughly by the
// element-selectivity of its designated element.
type PartitionedContainment struct {
	// Partitions is the number of partitions P; values < 1 default
	// to 64.
	Partitions int
}

// Name implements Algorithm.
func (p PartitionedContainment) Name() string { return "psj" }

// Predicate implements Algorithm.
func (PartitionedContainment) Predicate() Predicate { return Containment }

// Join implements Algorithm.
func (p PartitionedContainment) Join(r, s []*Group) (*rel.Relation, Stats) {
	P := p.Partitions
	if P < 1 {
		P = 64
	}
	var st Stats
	out := result(r)
	if len(r) == 0 {
		return out, st
	}
	hash := r[0].dict.hash

	// Build phase: replicate each R-group into the partition of each
	// of its distinct elements (at most once per partition: seen[q]
	// holds the last group placed into q, plus one).
	parts := make([][]*Group, P)
	seen := make([]int, P)
	for i, gr := range r {
		for _, id := range gr.ids {
			st.Probes++
			if q := hash[id] % uint64(P); seen[q] != i+1 {
				seen[q] = i + 1
				parts[q] = append(parts[q], gr)
			}
		}
	}

	// Probe phase: each S-group goes to the partition of its
	// designated element. Any element works for correctness (a
	// containing R-group holds them all, so it is replicated into
	// every one of these partitions); the least frequent one would be
	// optimal, and PSJ's heuristic of hashing the first element of
	// the run is kept here. A run that starts with absent has no
	// element in any R-set and no candidates.
	for _, gs := range align(r, s) {
		st.Probes++
		if gs.ids[0] == absent {
			continue
		}
		for _, gr := range parts[hash[gs.ids[0]]%uint64(P)] {
			st.PairsConsidered++
			if gs.sig&^gr.sig != 0 {
				continue
			}
			st.Verifications++
			if containsAll(gr.ids, gs.ids, &st.Comparisons) {
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
		}
	}
	return out, st
}
