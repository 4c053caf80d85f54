package setjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"radiv/internal/rel"
)

// TestGroupsFromBatchesMatchesGroups pins the batch-fed group builder
// against Groups on randomized relations: same groups, same
// first-occurrence order, same sorted elements, same signature — at
// batch sizes 1, 2 and 1024, with no pool leak.
func TestGroupsFromBatchesMatchesGroups(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := rel.NewRelation(2)
		for i := 0; i < 300; i++ {
			r.Add(rel.Ints(int64(rng.Intn(20)), int64(rng.Intn(40))))
		}
		want := Groups(r)
		for _, size := range []int{1, 2, 1024} {
			liveBefore, _, _ := rel.BatchPoolStats()
			got := GroupsFromBatches(rel.ToBatches(r.Scan(), 2, size))
			liveAfter, _, _ := rel.BatchPoolStats()
			if liveAfter != liveBefore {
				t.Fatalf("seed %d size=%d: batch leak: %d live before, %d after", seed, size, liveBefore, liveAfter)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d size=%d: %d groups, want %d", seed, size, len(got), len(want))
			}
			for i, g := range want {
				h := got[i]
				if !g.Key.Equal(h.Key) {
					t.Fatalf("seed %d size=%d: group %d key %s, want %s", seed, size, i, h.Key, g.Key)
				}
				if len(g.Elems) != len(h.Elems) {
					t.Fatalf("seed %d size=%d: group %d has %d elems, want %d", seed, size, i, len(h.Elems), len(g.Elems))
				}
				for j := range g.Elems {
					if !g.Elems[j].Equal(h.Elems[j]) {
						t.Fatalf("seed %d size=%d: group %d elem %d is %s, want %s", seed, size, i, j, h.Elems[j], g.Elems[j])
					}
				}
				if g.sig != h.sig {
					t.Fatalf("seed %d size=%d: group %d signature mismatch", seed, size, i)
				}
			}
		}
	}
}

// TestGroupsFromBatchesArityPanic pins the panic contract.
func TestGroupsFromBatchesArityPanic(t *testing.T) {
	defer func() {
		want := "setjoin: batch arity 1, want 2"
		if r := recover(); r == nil || fmt.Sprint(r) != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	r := rel.NewRelation(1)
	r.Add(rel.Ints(1))
	GroupsFromBatches(rel.ToBatches(r.Scan(), 1, 4))
}
