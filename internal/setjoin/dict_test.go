package setjoin

import (
	"testing"

	"radiv/internal/rel"
)

// TestDictKeysAgreeAcrossSides pins the property that makes the shared
// dictionary correct: groups of the same element set built
// independently (Groups on two relations, NewGroup, unsorted struct
// literals) encode to the same key through one Dict, and to a key
// different from every other set.
func TestDictKeysAgreeAcrossSides(t *testing.T) {
	r := rel.FromRows(2, []int64{1, 10}, []int64{1, 20}, []int64{2, 10})
	s := rel.FromRows(2, []int64{7, 20}, []int64{7, 10}, []int64{8, 10})
	gr, gs := Groups(r), Groups(s)
	dict := NewDict()
	if k1, k2 := dict.Key(gr[0]), dict.Key(gs[0]); k1 != k2 {
		t.Errorf("equal sets {10,20} encode differently: %q vs %q", k1, k2)
	}
	if k1, k3 := dict.Key(gr[0]), dict.Key(gs[1]); k1 == k3 {
		t.Errorf("distinct sets {10,20} and {10} encode equally")
	}
	// Hand-built unsorted group with duplicates: the PR 2 normalization
	// regression, now on the interned path.
	hand := &Group{Key: rel.Int(9), Elems: []rel.Value{rel.Int(20), rel.Int(10), rel.Int(20)}}
	if k1, kh := dict.Key(gr[0]), dict.Key(hand); k1 != kh {
		t.Errorf("hand-built unsorted group encodes to %q, want %q", kh, k1)
	}
	// ProbeKey: read-only, reports unmatchable sets instead of interning.
	before := dict.elems.Len()
	if _, ok := dict.ProbeKey(NewGroup(rel.Int(1), rel.Int(999))); ok {
		t.Error("ProbeKey claimed a key for a set with an unseen element")
	}
	if dict.elems.Len() != before {
		t.Error("ProbeKey grew the dictionary")
	}
	if k, ok := dict.ProbeKey(gs[0]); !ok || k != dict.Key(gr[0]) {
		t.Errorf("ProbeKey of a known set = %q, %v; want the shared key", k, ok)
	}
	// Empty sets encode equal (and non-nil lookups work).
	e1, e2 := NewGroup(rel.Int(1)), NewGroup(rel.Int(2))
	if dict.Key(e1) != dict.Key(e2) {
		t.Error("empty sets encode differently")
	}
	if k, ok := dict.ProbeKey(e1); !ok || k != dict.Key(e2) {
		t.Errorf("ProbeKey of the empty set = %q, %v", k, ok)
	}
}

// TestEqualityJoinsAgreeOnHandBuiltGroups re-runs the PR 2 regression
// scenario through every equality algorithm now that keys are
// interned: unsorted hand-built probe groups must still match.
func TestEqualityJoinsAgreeOnHandBuiltGroups(t *testing.T) {
	r := rel.FromRows(2, []int64{1, 10}, []int64{1, 20}, []int64{2, 30})
	gr := Groups(r)
	hand := []*Group{{Key: rel.Int(5), Elems: []rel.Value{rel.Int(20), rel.Int(10)}}}
	want := Reference(gr, hand, Equal)
	if want.Len() != 1 {
		t.Fatalf("reference found %d pairs, want 1", want.Len())
	}
	for _, alg := range EqualityAlgorithms(2) {
		got, _ := alg.Join(gr, hand)
		if !got.Equal(want) {
			t.Errorf("%s: hand-built group missed:\ngot %vwant %v", alg.Name(), got, want)
		}
	}
}
