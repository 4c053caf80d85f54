package setjoin

import (
	"fmt"
	"slices"
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

// rowGroup is one group as the row-at-a-time reference builds it.
type rowGroup struct {
	key   rel.Value
	elems []rel.Value // sorted by Value.Less
	sig   uint64
}

// groupsByRows is the row-at-a-time group builder Groups had before it
// delegated to GroupsFromBatches, kept as the reference of the test
// below: one group per distinct key in first-occurrence order over the
// decoded tuples, its values sorted and its signature hashed from them.
func groupsByRows(r *rel.Relation) []rowGroup {
	index := make(map[rel.Value]int)
	var order []rowGroup
	for _, t := range r.Tuples() {
		i, ok := index[t[0]]
		if !ok {
			i = len(order)
			index[t[0]] = i
			order = append(order, rowGroup{key: t[0]})
		}
		order[i].elems = append(order[i].elems, t[1])
		order[i].sig |= 1 << (hashValue(t[1]) % 64)
	}
	for _, g := range order {
		slices.SortFunc(g.elems, rel.Value.Cmp)
	}
	return order
}

// TestGroupsFromBatchesMatchesGroups pins the one group builder against
// the row-loop reference on workload.RandomSetJoin draws — as generated
// (integers), rendered as strings, and mixed: Groups (the relation's
// own ID columns) and GroupsFromBatches over the relation's batch scan
// at batch sizes 1, 2 and 1024 all yield the same groups, same
// first-occurrence order, same element sets in ascending runs, same
// signature.
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
	check := func(label string, got []*Group, want []rowGroup) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
		}
		values := decodeAll(got)
		for i, g := range want {
			h := got[i]
			if !g.key.Equal(h.Key) {
				t.Fatalf("%s: group %d key %s, want %s", label, i, h.Key, g.key)
			}
			if !slices.IsSorted(h.ids) || h.dict != got[0].dict {
				t.Fatalf("%s: group %d run %v is not ascending in the list's dictionary", label, i, h.ids)
			}
			if !slices.EqualFunc(values[i], g.elems, rel.Value.Equal) {
				t.Fatalf("%s: group %d holds %v, want %v", label, i, rel.Tuple(values[i]), rel.Tuple(g.elems))
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
					got := GroupsFromBatches(r.BatchScanSized(size))
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

// TestGroupsFromBatchesElementLimit pins the capacity check: a group
// list whose element dictionary would hand out absent as an ID panics,
// checked once per batch. The limit is lowered to 3 elements.
func TestGroupsFromBatchesElementLimit(t *testing.T) {
	defer func(was int) { maxElems = was }(maxElems)
	maxElems = 3
	r := rel.NewRelation(2)
	for e := range int64(3) {
		r.Add(rel.Ints(e%2, e))
	}
	if gs := GroupsFromBatches(r.BatchScanSized(2)); len(gs) != 2 {
		t.Fatalf("%d groups at the limit, want 2", len(gs))
	}
	r.Add(rel.Ints(0, 3))
	defer func() {
		want := "setjoin: 4 distinct elements in one group list, at most 3 have an ID below absent"
		if p := recover(); p == nil || fmt.Sprint(p) != want {
			t.Fatalf("panic %v, want %q", p, want)
		}
	}()
	GroupsFromBatches(r.BatchScanSized(2))
}

// TestGroupsFromBatchesMixedDictionaries: a group list's element and
// key IDs index the one dictionary of its stream, so a stream whose
// batches switch dictionaries — two standalone relations back to back
// — is refused with a "setjoin: " panic. No production cursor produces
// such a stream: a store's relations share its dictionary.
func TestGroupsFromBatchesMixedDictionaries(t *testing.T) {
	r1 := rel.FromRows(2, []int64{1, 10}, []int64{1, 11})
	r2 := rel.FromRows(2, []int64{2, 11}, []int64{3, 10})
	defer func() {
		want := "setjoin: the batches of one group list switch dictionaries"
		if p := recover(); p == nil || fmt.Sprint(p) != want {
			t.Fatalf("panic %v, want %q", p, want)
		}
	}()
	GroupsFromBatches(&concatBatches{cs: []rel.BatchCursor{r1.BatchScan(), r2.BatchScan()}})
}

// concatBatches yields the batches of its cursors one after another.
type concatBatches struct {
	cs []rel.BatchCursor
	i  int
}

func (c *concatBatches) NextBatch() (*rel.Batch, bool) {
	for c.i < len(c.cs) {
		if b, ok := c.cs[c.i].NextBatch(); ok {
			return b, true
		}
		c.i++
	}
	return nil, false
}
