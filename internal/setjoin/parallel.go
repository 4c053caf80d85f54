package setjoin

import (
	"radiv/internal/engine"
	"radiv/internal/rel"
)

// chunkRanges splits n items into at most parts contiguous [lo, hi)
// ranges of near-equal size. Contiguity keeps the merged output in
// exactly the order the sequential algorithm would emit it.
func chunkRanges(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for c := 0; c < parts; c++ {
		lo := c * n / parts
		hi := (c + 1) * n / parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// mergeStats sums per-chunk counters into one Stats.
func mergeStats(per []Stats) Stats {
	var st Stats
	for _, p := range per {
		st.PairsConsidered += p.PairsConsidered
		st.Verifications += p.Verifications
		st.Comparisons += p.Comparisons
		st.Probes += p.Probes
	}
	return st
}

// pair is one (R-key, S-key) join result awaiting the ordered merge.
type pair struct{ a, c rel.Value }

// ParallelSignatureContainment shards the R side of the signature
// nested-loop containment join into contiguous chunks processed by the
// engine worker pool. Group lists and signatures are shared read-only;
// per-chunk outputs concatenate in chunk order, so the emitted pair
// sequence — and therefore the result relation, byte for byte — is
// identical to the sequential SignatureContainment run.
type ParallelSignatureContainment struct {
	// Workers is the goroutine pool size; values <= 0 mean one worker
	// per CPU.
	Workers int
}

// Name implements Algorithm.
func (ParallelSignatureContainment) Name() string { return "parallel-signature" }

// Predicate implements Algorithm.
func (ParallelSignatureContainment) Predicate() Predicate { return Containment }

// Join implements Algorithm.
func (p ParallelSignatureContainment) Join(r, s []*Group) (*rel.Relation, Stats) {
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		// One worker cannot beat the sequential join; skip the
		// chunking overhead entirely.
		return SignatureContainment{}.Join(r, s)
	}
	chunks := chunkRanges(len(r), ex.PartitionCount())
	pairs := make([][]pair, len(chunks))
	per := make([]Stats, len(chunks))
	ex.Run(len(chunks), func(c int) {
		st := &per[c]
		for _, gr := range r[chunks[c][0]:chunks[c][1]] {
			for _, gs := range s {
				st.PairsConsidered++
				if gs.sig&^gr.sig != 0 {
					continue // a bit of D is missing from B: cannot contain
				}
				st.Verifications++
				if gr.ContainsAll(gs, &st.Comparisons) {
					pairs[c] = append(pairs[c], pair{gr.Key, gs.Key})
				}
			}
		}
	})
	out := rel.NewRelation(2)
	for _, ps := range pairs {
		for _, pr := range ps {
			out.Add(rel.Tuple{pr.a, pr.c})
		}
	}
	return out, mergeStats(per)
}

// ParallelHashEquality is the canonical-encoding hash equality join
// with a parallel probe phase: the R-side index is built sequentially
// on a shared Dict (interned element IDs — the build phase is the only
// writer of the dictionary), then contiguous chunks of S probe it
// concurrently through the read-only Dict.ProbeKey path. Chunk outputs
// concatenate in chunk order, matching the sequential HashEquality
// emission order exactly.
type ParallelHashEquality struct {
	// Workers is the goroutine pool size; values <= 0 mean one worker
	// per CPU.
	Workers int
}

// Name implements Algorithm.
func (ParallelHashEquality) Name() string { return "parallel-hash-equality" }

// Predicate implements Algorithm.
func (ParallelHashEquality) Predicate() Predicate { return Equal }

// Join implements Algorithm.
func (p ParallelHashEquality) Join(r, s []*Group) (*rel.Relation, Stats) {
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		return HashEquality{}.Join(r, s)
	}
	var build Stats
	dict := NewDict()
	index := make(map[string][]*Group, len(r))
	for _, gr := range r {
		build.Probes++
		k := dict.Key(gr)
		index[k] = append(index[k], gr)
	}
	chunks := chunkRanges(len(s), ex.PartitionCount())
	pairs := make([][]pair, len(chunks))
	per := make([]Stats, len(chunks))
	ex.Run(len(chunks), func(c int) {
		st := &per[c]
		for _, gs := range s[chunks[c][0]:chunks[c][1]] {
			st.Probes++
			k, ok := dict.ProbeKey(gs)
			if !ok {
				continue // an element no R-set has: equality impossible
			}
			for _, gr := range index[k] {
				st.PairsConsidered++
				pairs[c] = append(pairs[c], pair{gr.Key, gs.Key})
			}
		}
	})
	out := rel.NewRelation(2)
	for _, ps := range pairs {
		for _, pr := range ps {
			out.Add(rel.Tuple{pr.a, pr.c})
		}
	}
	st := mergeStats(per)
	st.Probes += build.Probes
	return out, st
}
