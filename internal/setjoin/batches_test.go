package setjoin

import (
	"fmt"
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

// groupsByRows is the row-at-a-time group builder Groups had before it
// delegated to GroupsFromBatches, kept as the reference of the test
// below: one group per distinct key in first-occurrence order over the
// decoded tuples.
func groupsByRows(r *rel.Relation) []*Group {
	index := make(map[rel.Value]int)
	var keys []rel.Value
	var elems [][]rel.Value
	for _, t := range r.Tuples() {
		i, ok := index[t[0]]
		if !ok {
			i = len(keys)
			index[t[0]] = i
			keys, elems = append(keys, t[0]), append(elems, nil)
		}
		elems[i] = append(elems[i], t[1])
	}
	order := make([]*Group, len(keys))
	for i, k := range keys {
		order[i] = NewGroup(k, elems[i]...)
	}
	return order
}

// TestGroupsFromBatchesMatchesGroups pins the one group builder against
// the row-loop reference on workload.RandomSetJoin draws — as generated
// (integers), rendered as strings, and mixed: Groups (the relation's
// own ID columns) and GroupsFromBatches over the relation's batch scan
// at batch sizes 1, 2 and 1024 all yield the same groups, same
// first-occurrence order, same sorted elements, same signature, with no
// pool leak.
func TestGroupsFromBatchesMatchesGroups(t *testing.T) {
	str := func(v rel.Value) rel.Value { return rel.Str("v" + v.String()) }
	variants := []struct {
		name string
		conv func(rel.Tuple) rel.Tuple
	}{
		{"ints", func(tu rel.Tuple) rel.Tuple { return tu }},
		{"strings", func(tu rel.Tuple) rel.Tuple { return rel.T(str(tu[0]), str(tu[1])) }},
		{"mixed", func(tu rel.Tuple) rel.Tuple {
			if tu[1].AsInt()%2 == 0 {
				return rel.T(str(tu[0]), tu[1])
			}
			return rel.T(tu[0], str(tu[1]))
		}},
	}
	check := func(label string, got, want []*Group) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
		}
		for i, g := range want {
			h := got[i]
			if !g.Key.Equal(h.Key) {
				t.Fatalf("%s: group %d key %s, want %s", label, i, h.Key, g.Key)
			}
			if len(g.Elems) != len(h.Elems) {
				t.Fatalf("%s: group %d has %d elems, want %d", label, i, len(h.Elems), len(g.Elems))
			}
			for j := range g.Elems {
				if !g.Elems[j].Equal(h.Elems[j]) {
					t.Fatalf("%s: group %d elem %d is %s, want %s", label, i, j, h.Elems[j], g.Elems[j])
				}
			}
			if g.sig != h.sig {
				t.Fatalf("%s: group %d signature mismatch", label, i)
			}
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		gr, gs := workload.RandomSetJoin(seed).Generate()
		for side, src := range []*rel.Relation{gr, gs} {
			for _, v := range variants {
				r := rel.NewRelation(2)
				for _, tu := range src.Tuples() {
					r.Add(v.conv(tu))
				}
				label := fmt.Sprintf("seed %d side %d %s", seed, side, v.name)
				want := groupsByRows(r)
				check(label+" Groups", Groups(r), want)
				for _, size := range []int{1, 2, 1024} {
					liveBefore, _, _ := rel.BatchPoolStats()
					got := GroupsFromBatches(r.BatchScanSized(size))
					liveAfter, _, _ := rel.BatchPoolStats()
					if liveAfter != liveBefore {
						t.Fatalf("%s size=%d: batch leak: %d live before, %d after", label, size, liveBefore, liveAfter)
					}
					check(fmt.Sprintf("%s size=%d", label, size), got, want)
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
	GroupsFromBatches(r.BatchScanSized(4))
}
