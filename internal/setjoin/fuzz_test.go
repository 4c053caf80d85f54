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
// and overlap join must then equal Reference, both ways round. The seed
// corpus is testdata/fuzz/FuzzSetJoin.
func FuzzSetJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rels := [2]*rel.Relation{rel.NewRelation(2), rel.NewRelation(2)}
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
	})
}
