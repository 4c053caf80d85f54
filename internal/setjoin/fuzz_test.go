package setjoin

import (
	"strconv"
	"testing"

	"radiv/internal/rel"
)

// FuzzSetJoin decodes its input into two small binary relations, two
// bytes a tuple: the first byte's low bit picks R or S and its next
// three bits the key; the second byte's low three bits are the element
// and its fourth bit makes it the string of that number, so int and
// string elements that print alike meet. Every containment, equality
// and overlap join must then equal Reference, both ways round, and so
// must ShardContainment's pairs, in Reference's order. The top bit of
// the first byte builds R and S in one rel.Database, so the two group
// lists share a source dictionary and align maps S by array lookup;
// otherwise they are two standalone relations and align looks values
// up across dictionaries. The seed corpus is testdata/fuzz/FuzzSetJoin;
// dense-postings has every S element in most R sets, sparse-postings
// every element in one, one-database takes the shared path.
func FuzzSetJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rels := [2]*rel.Relation{rel.NewRelation(2), rel.NewRelation(2)}
		if len(data) > 0 && data[0]&0x80 != 0 {
			d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
			rels = [2]*rel.Relation{d.Rel("R"), d.Rel("S")}
		}
		for i := 0; i+1 < len(data); i += 2 {
			key, e := rel.Int(int64(data[i]>>1&7)), int64(data[i+1]&7)
			v := rel.Int(e)
			if data[i+1]&8 != 0 {
				v = rel.Str(strconv.FormatInt(e, 10))
			}
			rels[data[i]&1].Add(rel.Tuple{key, v})
		}
		r, s := Groups(rels[0]), Groups(rels[1])
		agreeWithReference(t, "R ⋈ S", r, s)
		agreeWithReference(t, "S ⋈ R", s, r)
		agreeShardContainment(t, "R ⋈ S", r, s)
		agreeShardContainment(t, "S ⋈ R", s, r)
	})
}

// agreeShardContainment fails unless ShardContainment cuts its pairs
// into one run per R group, considers no more pairs than the |R|·|S| of
// the signature nested loop, and its pairs decode to Reference's
// containment join in Reference's order: R-major, S ascending.
func agreeShardContainment(t *testing.T, label string, r, s []*Group) {
	t.Helper()
	rank := make([]uint32, len(r))
	for ri := range rank {
		rank[ri] = uint32(len(r) - ri) // any distinct ranks; these descend
	}
	p, st := ShardContainment(r, s, rank)
	if len(p.Start) != len(r)+1 {
		t.Fatalf("%s: %d run starts for %d R groups", label, len(p.Start), len(r))
	}
	if st.PairsConsidered > len(r)*len(s) {
		t.Fatalf("%s: %d pairs considered, the nested loop has %d", label, st.PairsConsidered, len(r)*len(s))
	}
	for ri := range r {
		for _, k := range p.R[p.Start[ri]:p.Start[ri+1]] {
			if k != rank[ri] {
				t.Fatalf("%s: R group %d's run holds rank %d, want %d", label, ri, k, rank[ri])
			}
		}
	}
	want := Reference(r, s, Containment).Tuples()
	if len(want) != len(p.R) {
		t.Fatalf("%s: %d pairs, Reference has %d", label, len(p.R), len(want))
	}
	for i, tup := range want {
		if got := (rel.Tuple{r[len(r)-int(p.R[i])].Key, s[p.S[i]].Key}); !got.Equal(tup) {
			t.Fatalf("%s: pair %d is %v, Reference's is %v", label, i, got, tup)
		}
	}
}
