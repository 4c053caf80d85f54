package setjoin

import (
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// chunkRanges splits n items into at most parts contiguous [lo, hi)
// ranges of near-equal size. Contiguity keeps the merged output in
// exactly the order the sequential algorithm would emit it. The
// parallel joins ask for a small multiple of the worker count (at most
// 256), so uneven chunks balance across workers.
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
// worker pool (exec.Run). Group lists and signatures are shared read-only;
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
	workers := exec.Workers(p.Workers)
	if workers <= 1 {
		// One worker cannot beat the sequential join; skip the
		// chunking overhead entirely.
		return SignatureContainment{}.Join(r, s)
	}
	s = align(r, s)
	chunks := chunkRanges(len(r), min(4*workers, 256))
	pairs := make([][]pair, len(chunks))
	per := make([]Stats, len(chunks))
	exec.Run(workers, len(chunks), func(c int) {
		st := &per[c]
		for _, gr := range r[chunks[c][0]:chunks[c][1]] {
			for _, gs := range s {
				st.PairsConsidered++
				if gs.sig&^gr.sig != 0 {
					continue // a bit of D is missing from B: cannot contain
				}
				st.Verifications++
				if containsAll(gr.ids, gs.ids, &st.Comparisons) {
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
// with a parallel probe phase: the R-side index is built and S aligned
// to R's dictionary sequentially, then contiguous chunks of S probe the
// index concurrently, each with its own key buffer. Chunk outputs
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
	workers := exec.Workers(p.Workers)
	if workers <= 1 {
		return HashEquality{}.Join(r, s)
	}
	var build Stats
	index := keyIndex(r, &build.Probes)
	s = align(r, s)
	chunks := chunkRanges(len(s), min(4*workers, 256))
	pairs := make([][]pair, len(chunks))
	per := make([]Stats, len(chunks))
	exec.Run(workers, len(chunks), func(c int) {
		st := &per[c]
		var buf []byte
		for _, gs := range s[chunks[c][0]:chunks[c][1]] {
			st.Probes++
			buf = runKey(buf[:0], gs.ids)
			for _, ri := range index[string(buf)] {
				st.PairsConsidered++
				pairs[c] = append(pairs[c], pair{r[ri].Key, gs.Key})
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
