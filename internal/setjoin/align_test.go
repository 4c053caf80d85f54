package setjoin

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

// allAlgorithms is every containment, equality and overlap join.
func allAlgorithms() []Algorithm {
	algs := append(ContainmentAlgorithms(), EqualityAlgorithms()...)
	return append(algs, EquijoinOverlap{}, PartitionedContainment{Partitions: 3})
}

// agreeWithReference fails unless every algorithm joins r and s to
// Reference's relation for its predicate.
func agreeWithReference(t *testing.T, label string, r, s []*Group) {
	t.Helper()
	for _, alg := range allAlgorithms() {
		want := Reference(r, s, alg.Predicate())
		if got, _ := alg.Join(r, s); !got.Equal(want) {
			t.Fatalf("%s %s/%s:\ngot %vwant %v", label, alg.Name(), alg.Predicate(), got, want)
		}
	}
}

// TestAlignAcrossDictionaries pins the step every join starts with. R
// and S come from two relations whose dictionaries number the same
// values in different orders: aligned, an S set equal to an R set has
// the R set's run, and an S set with an element R lacks keeps the
// elements R has and ends in absent. Keys, signatures and the S list
// itself are left as they were, and a list already in R's dictionary
// comes back as it is.
func TestAlignAcrossDictionaries(t *testing.T) {
	r := Groups(rel.FromRows(2, []int64{1, 10}, []int64{1, 20}, []int64{2, 30}, []int64{2, 10}))
	s := Groups(rel.FromRows(2,
		[]int64{7, 30}, []int64{7, 10}, []int64{8, 20}, []int64{8, 10}, []int64{9, 40}, []int64{9, 10}))
	sRuns := [][]uint32{slices.Clone(s[0].ids), slices.Clone(s[1].ids), slices.Clone(s[2].ids)}
	a := align(r, s)
	if !slices.Equal(a[0].ids, r[1].ids) || !slices.Equal(a[1].ids, r[0].ids) {
		t.Errorf("aligned {10,30} and {10,20} are %v and %v, want R's %v and %v", a[0].ids, a[1].ids, r[1].ids, r[0].ids)
	}
	if want := []uint32{r[0].ids[0], absent}; !slices.Equal(a[2].ids, want) {
		t.Errorf("aligned {10,40} is %v, want %v", a[2].ids, want)
	}
	for i, g := range a {
		if g.dict != r[0].dict || !g.Key.Equal(s[i].Key) || g.sig != s[i].sig {
			t.Errorf("aligned group %d: dictionary, key or signature not carried over", i)
		}
		if !slices.Equal(s[i].ids, sRuns[i]) || s[i].dict == r[0].dict {
			t.Errorf("align rewrote S group %d", i)
		}
	}
	if got := align(r, r); &got[0] != &r[0] {
		t.Error("aligning a list to its own dictionary copied it")
	}
	matched := rel.FromTuples(2, rel.Ints(1, 8), rel.Ints(2, 7))
	for _, alg := range append(ContainmentAlgorithms(), EqualityAlgorithms()...) {
		if got, _ := alg.Join(r, s); !got.Equal(matched) {
			t.Errorf("%s across dictionaries:\ngot %vwant %v", alg.Name(), got, matched)
		}
	}
	// Overlap still sees the elements R has: 9 shares 10 with both.
	if got, _ := (EquijoinOverlap{}).Join(r, s); got.Len() != 6 {
		t.Errorf("overlap across dictionaries = %v, want all 6 pairs", got)
	}
}

// mixedRelation draws a binary relation of groups sets over dom
// elements. With strs, an element is as often the string of its number
// as the number itself, so int 1 and string "1" share the column.
func mixedRelation(rng *rand.Rand, groups, dom, maxSet int, strs bool) *rel.Relation {
	r := rel.NewRelation(2)
	for g := 0; g < groups; g++ {
		for i := 1 + rng.Intn(maxSet); i > 0; i-- {
			e := rng.Intn(dom)
			v := rel.Int(int64(e))
			if strs && rng.Intn(2) == 0 {
				v = rel.Str(strconv.Itoa(e))
			}
			r.Add(rel.Tuple{rel.Int(int64(g)), v})
		}
	}
	return r
}

// sameAsSignature fails unless InvertedIndexContainment's result is
// SignatureContainment's down to its storage: the same rows in the same
// order over the same dictionary, value for value in ID order — both
// based on R's source dictionary, so the rows keep the keys' IDs there.
func sameAsSignature(t *testing.T, label string, r, s []*Group) {
	t.Helper()
	want, _ := SignatureContainment{}.Join(r, s)
	got, _ := InvertedIndexContainment{}.Join(r, s)
	wc, wd := want.IDColumns()
	gc, gd := got.IDColumns()
	if !slices.Equal(wc[0], gc[0]) || !slices.Equal(wc[1], gc[1]) || wd.Len() != gd.Len() {
		t.Fatalf("%s: inverted-index ID columns %v over %d values, signature's %v over %d", label, gc, gd.Len(), wc, wd.Len())
	}
	for id := range uint32(wd.Len()) {
		if !wd.Value(id).Equal(gd.Value(id)) {
			t.Fatalf("%s: dictionary ID %d is %v, signature's is %v", label, id, gd.Value(id), wd.Value(id))
		}
	}
}

// TestAlignedJoinsAgainstReference crosses every join with the ways two
// group lists can meet: (a) both from one relation, so alignment is the
// identity; (b) from two relations; (c) with S elements R has nowhere;
// (d) with int 1 and string "1" in one element column; (e) an S list
// that mixes the groups of two relations, keys repeating; (f) both
// from a relation whose dictionary is based on another's, as a query
// result's is, with values in its own tail. The inverted-index join's
// storage is checked against the signature join's throughout.
func TestAlignedJoinsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 30; trial++ {
		one := Groups(mixedRelation(rng, 2+rng.Intn(12), 5, 4, false))
		k := 1 + rng.Intn(len(one)-1)
		if a := align(one[:k], one[k:]); &a[0] != &one[k] {
			t.Fatal("(a): alignment within one list is not the identity")
		}
		agreeWithReference(t, fmt.Sprintf("(a) trial %d", trial), one[:k], one[k:])
		sameAsSignature(t, fmt.Sprintf("(a) trial %d", trial), one[k:], one[:k])

		r := Groups(mixedRelation(rng, 1+rng.Intn(10), 5, 4, false))
		s := Groups(mixedRelation(rng, 1+rng.Intn(10), 5, 3, false))
		agreeWithReference(t, fmt.Sprintf("(b) trial %d", trial), r, s)
		sameAsSignature(t, fmt.Sprintf("(b) trial %d", trial), r, s)

		s = Groups(mixedRelation(rng, 1+rng.Intn(10), 8, 3, false))
		agreeWithReference(t, fmt.Sprintf("(c) trial %d", trial), r, s)
		sameAsSignature(t, fmt.Sprintf("(c) trial %d", trial), r, s)

		r = Groups(mixedRelation(rng, 1+rng.Intn(10), 4, 5, true))
		s = Groups(mixedRelation(rng, 1+rng.Intn(10), 4, 3, true))
		agreeWithReference(t, fmt.Sprintf("(d) trial %d", trial), r, s)
		sameAsSignature(t, fmt.Sprintf("(d) trial %d", trial), r, s)

		s = append(s, Groups(mixedRelation(rng, 1+rng.Intn(10), 4, 3, true))...)
		agreeWithReference(t, fmt.Sprintf("(e) trial %d", trial), r, s)
		sameAsSignature(t, fmt.Sprintf("(e) trial %d", trial), r, s)

		src := mixedRelation(rng, 1+rng.Intn(10), 5, 4, false)
		res := rel.NewRelationOver(2, src.Interner())
		for _, tp := range append(src.Tuples(), mixedRelation(rng, 1+rng.Intn(10), 9, 3, true).Tuples()...) {
			res.Add(tp)
		}
		f := Groups(res)
		agreeWithReference(t, fmt.Sprintf("(f) trial %d", trial), f, f)
		sameAsSignature(t, fmt.Sprintf("(f) trial %d", trial), f, f)
	}
}

// TestSignatureCountsOnSJ1 pins the signature joins' counts on the SJ1
// experiment's three workloads to what they were when groups held
// values: signatures hash values, not IDs, so neither the pairs the
// filter passes nor the verifications may move.
func TestSignatureCountsOnSJ1(t *testing.T) {
	for _, tc := range []struct{ n, verifications, result int }{
		{100, 110, 14}, {200, 500, 92}, {400, 1451, 230},
	} {
		wl := workload.SetJoin{RGroups: tc.n, SGroups: tc.n, MeanSize: 6, Dist: workload.Uniform,
			Domain: 400, ContainFraction: 0.05, Seed: 7}
		r, s := wl.Generate()
		gr, gs := Groups(r), Groups(s)
		res, st := SignatureContainment{}.Join(gr, gs)
		if st.PairsConsidered != tc.n*tc.n || st.Verifications != tc.verifications || res.Len() != tc.result {
			t.Errorf("n=%d: %d pairs, %d verifications, %d results; want %d, %d, %d",
				tc.n, st.PairsConsidered, st.Verifications, res.Len(), tc.n*tc.n, tc.verifications, tc.result)
		}
	}
}
