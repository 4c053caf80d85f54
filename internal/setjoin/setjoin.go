// Package setjoin implements the set joins of the paper's
// introduction: for binary relations R(A,B) and S(C,D), the
// set-containment join R ⋈_{B⊇D} S returning the pairs (a,c) with
// {b | R(a,b)} ⊇ {d | S(c,d)}, the set-equality join (= instead of ⊇),
// and the set-overlap join ("intersection nonempty", which the paper
// notes boils down to an ordinary equijoin).
//
// Algorithms follow the literature the paper cites: block nested-loop
// with sorted-set verification, signature nested-loop à la Helmer and
// Moerkotte (VLDB 1997), and an inverted-index probe in the spirit of
// Ramasamy et al. (VLDB 2000) and Mamoulis (SIGMOD 2003). For the
// equality join a canonical-encoding hash join achieves the
// O(n log n) + output bound of the paper's footnote 1; no
// sub-quadratic algorithm is known for the containment join, matching
// the paper's remark.
//
// Every algorithm runs on element IDs. Groups turns a relation's stored
// ID columns into groups whose sets are ascending uint32 runs in one
// element dictionary per group list; each Join first re-expresses S in
// R's dictionary (align: an array lookup per distinct element when both
// lists were grouped from one database), so verifying a pair merges two
// uint32 runs, an equality key is a run's 4-byte encoding, and postings
// are indexed by ID. Only Reference, the oracle, decodes the elements
// to values.
package setjoin

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"radiv/internal/rel"
)

// Group is one set-valued row: a key value and its element set. The set
// is an ascending run of distinct element IDs, a sub-slice of one flat
// array per group list; the IDs index the element dictionary all groups
// of one Groups or GroupsFromBatches call share. Those two are the only
// constructors, so no group is empty.
type Group struct {
	Key rel.Value
	// gid is Key's index in dict.keys, the keys of the group's list.
	gid  uint32
	ids  []uint32
	sig  uint64
	dict *elemDict
}

// Len returns the number of elements in the group's set.
func (g *Group) Len() int { return len(g.ids) }

// elemDict is the element dictionary of one group list. Its element IDs
// and gids are dense, in first-occurrence order over the stream the
// list was grouped from, and map to IDs in that stream's one source
// dictionary: values by element ID, elemOf back again, keys by gid.
// hash holds hashValue of each element, computed once per distinct
// value for the signatures and PSJ's partitions.
type elemDict struct {
	src    *rel.Interner
	values []uint32 // by element ID: its ID in src
	elemOf []uint32 // by ID in src: 1 + its element ID, 0 if no run holds it
	hash   []uint64
	keys   []uint32 // by gid: the key's ID in src
}

// value decodes element id.
func (d *elemDict) value(id uint32) rel.Value { return d.src.Value(d.values[id]) }

// Groups converts a binary relation into its set-valued form, one
// group per distinct first-column value, in first-occurrence order: it
// is GroupsFromBatches over the relation's stored ID columns, so no
// row is decoded and no key string built per tuple.
func Groups(r *rel.Relation) []*Group {
	if r.Arity() != 2 {
		panic(fmt.Sprintf("setjoin: relation arity %d, want 2", r.Arity()))
	}
	return GroupsFromBatches(r.BatchScan())
}

// GroupsFromBatches builds the groups of a columnar batch stream of
// binary rows, all of one dictionary: a stream whose batches switch
// dictionaries panics. Keys and elements get dense IDs in
// first-occurrence order through flat slices indexed by the source ID,
// so each row costs two array loads. The rows are then laid out by group
// in one flat array, each run sorted by ID. Groups come in
// first-occurrence order of their keys in the stream, so any two
// streams carrying the same tuples in the same order — a relation's
// BatchScan, a sharded relation's source-order scan — yield identical
// groups, which is what lets the sharded set joins feed shard-local
// batch scans straight into the group builder.
func GroupsFromBatches(in rel.BatchCursor) []*Group {
	d := &elemDict{}
	var keyOf []uint32      // by ID in src: 1 + the key's gid, 0 until met
	var gids, eids []uint32 // per row: its group and its element
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		if b.Arity() != 2 {
			panic(fmt.Sprintf("setjoin: batch arity %d, want 2", b.Arity()))
		}
		if d.src == nil {
			d.src = b.Dict()
		} else if b.Dict() != d.src {
			panic("setjoin: the batches of one group list switch dictionaries")
		}
		if n := d.src.Len(); len(keyOf) < n {
			keyOf = append(keyOf, make([]uint32, n-len(keyOf))...)
			d.elemOf = append(d.elemOf, make([]uint32, n-len(d.elemOf))...)
		}
		kcol, ecol := b.Col(0), b.Col(1)
		for row := range b.Len() {
			k, e := kcol[row], ecol[row]
			if keyOf[k] == 0 {
				d.keys = append(d.keys, k)
				keyOf[k] = uint32(len(d.keys))
			}
			if d.elemOf[e] == 0 {
				d.values = append(d.values, e)
				d.elemOf[e] = uint32(len(d.values))
			}
			gids = append(gids, keyOf[k]-1)
			eids = append(eids, d.elemOf[e]-1)
		}
		if len(d.values) > maxElems {
			panic(fmt.Sprintf("setjoin: %d distinct elements in one group list, at most %d have an ID below absent", len(d.values), maxElems))
		}
	}
	d.hash = make([]uint64, len(d.values))
	for id := range d.hash {
		d.hash[id] = hashValue(d.value(uint32(id)))
	}
	// Counting sort of the rows by group: end[g] ends up past g's run.
	// No per-group dedup is needed: the source has set semantics, so
	// (key, elem) pairs — and hence elems within a group — arrive
	// distinct.
	groups := make([]Group, len(d.keys))
	end := make([]int, len(groups)+1)
	for _, gid := range gids {
		end[gid+1]++
	}
	for g := range groups {
		end[g+1] += end[g]
	}
	flat := make([]uint32, len(eids))
	for row, gid := range gids {
		flat[end[gid]] = eids[row]
		end[gid]++
	}
	out := make([]*Group, len(groups))
	lo := 0
	for i := range groups {
		g := &groups[i]
		*g = Group{Key: d.src.Value(d.keys[i]), gid: uint32(i), ids: flat[lo:end[i]:end[i]], dict: d}
		slices.Sort(g.ids)
		// The signature is the OR of one hash bit per element, so it is
		// superset-monotone: sig(X) ⊇bits sig(Y) is necessary for X ⊇ Y,
		// which lets signatures prune containment candidates.
		for _, id := range g.ids {
			g.sig |= 1 << (d.hash[id] % 64)
		}
		lo, out[i] = end[i], g
	}
	return out
}

// hashValue hashes a value's payload directly (FNV-1a), without
// building the Tuple.Key encoding. Both join sides hash value content,
// so signatures and partitions agree across independently built group
// lists.
func hashValue(v rel.Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if v.IsInt() {
		n := uint64(v.AsInt())
		for i := 0; i < 8; i++ {
			h ^= n & 0xff
			h *= prime64
			n >>= 8
		}
		return h
	}
	for i := 0; i < len(v.AsString()); i++ {
		h ^= uint64(v.AsString()[i])
		h *= prime64
	}
	return h
}

// maxElems is the most distinct elements one group list may hold: their
// IDs must stay below absent. GroupsFromBatches checks it once per
// batch, the step its dictionary grows by; a test lowers it.
var maxElems = int(absent)

// absent ends an aligned run whose group has elements R's dictionary
// lacks. No R run holds it, so such a group is contained in no R set
// and equal to none; being the largest ID, it keeps the run ascending.
const absent = math.MaxUint32

// align re-expresses the S list s in the element dictionary of the R
// list r, the step every Join starts with. It only reads — r's
// dictionary is never written, so concurrent joins against one R list
// may align at once — and re-sorts each translated run. An S group with
// elements r's dictionary lacks keeps the ones it has and ends in
// absent. Keys and signatures are copied unchanged, so the signature
// filter passes exactly the pairs it passed before. A list already in
// r's dictionary comes back as it is.
func align(r, s []*Group) []*Group {
	if len(r) == 0 {
		return s // nothing to join with
	}
	d := r[0].dict
	elsewhere := func(g *Group) bool { return g.dict != d }
	if slices.ContainsFunc(r, elsewhere) {
		panic("setjoin: the R groups come from more than one Groups call")
	}
	if !slices.ContainsFunc(s, elsewhere) {
		return s
	}
	var from *elemDict
	var tr []uint32 // by element ID of from: the element ID in d, or absent
	var flat []uint32
	groups := make([]Group, len(s))
	out := make([]*Group, len(s))
	for i, g := range s {
		if g.dict == d {
			out[i] = g
			continue
		}
		if g.dict != from {
			from, tr = g.dict, d.translate(g.dict)
		}
		lo, missing := len(flat), false
		for _, id := range g.ids {
			if t := tr[id]; t != absent {
				flat = append(flat, t)
			} else {
				missing = true
			}
		}
		slices.Sort(flat[lo:])
		if missing {
			flat = append(flat, absent)
		}
		groups[i] = *g
		groups[i].ids, groups[i].dict = flat[lo:len(flat):len(flat)], d
		out[i] = &groups[i]
	}
	return out
}

// translate maps every element ID of from to d's element ID of the same
// value, or to absent. Over one source dictionary that is an array
// lookup per element; across two, each value is looked up in d's with
// Interner.ID, which writes nothing.
func (d *elemDict) translate(from *elemDict) []uint32 {
	tr := make([]uint32, len(from.values))
	for e, id := range from.values {
		tr[e] = absent
		if from.src != d.src {
			var ok bool
			if id, ok = d.src.ID(from.src.Value(id)); !ok {
				continue
			}
		}
		if int(id) < len(d.elemOf) && d.elemOf[id] != 0 {
			tr[e] = d.elemOf[id] - 1
		}
	}
	return tr
}

// containsAll reports have ⊇ want for two ascending runs in one
// dictionary by merging them; cmp receives the number of comparisons.
func containsAll(have, want []uint32, cmp *int) bool {
	if len(want) > len(have) {
		*cmp++
		return false
	}
	i, n := 0, 0
	for _, w := range want {
		j := i
		for j < len(have) && have[j] < w {
			j++
		}
		n += j - i + 1
		if j == len(have) || have[j] != w {
			*cmp += n
			return false
		}
		i = j + 1
	}
	*cmp += n
	return true
}

// runKey appends the 4-byte little-endian encoding of a run to buf. Two
// runs in one dictionary are equal exactly when their encodings are, so
// it is the equality joins' canonical key.
func runKey(buf []byte, ids []uint32) []byte {
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}

// keyIndex maps each R group's key to its positions in r, in r's
// order: the build side of the hash equality joins. probes counts one
// per group.
func keyIndex(r []*Group, probes *int) map[string][]int32 {
	index := make(map[string][]int32, len(r))
	var buf []byte
	for i, g := range r {
		buf = runKey(buf[:0], g.ids)
		index[string(buf)] = append(index[string(buf)], int32(i))
	}
	*probes += len(r)
	return index
}

// postings is an inverted index over one R group list in CSR form: the
// positions in r of the groups whose run holds element id are
// pos[start[id]:start[id+1]], ascending.
type postings struct {
	start []int32
	pos   []int32
}

// newPostings indexes r in two passes: one counts each element's
// postings into start, the other scatters each group's position into
// its elements' postings, in r's order, so len(pos) is Σ|R|. Each
// start[id] serves as id's write cursor and ends at start[id+1]'s old
// value, so one shift puts every start back.
func newPostings(r []*Group) postings {
	if len(r) == 0 {
		return postings{}
	}
	x := postings{start: make([]int32, len(r[0].dict.values)+1)}
	for _, g := range r {
		for _, id := range g.ids {
			x.start[id+1]++
		}
	}
	for id := 1; id < len(x.start); id++ {
		x.start[id] += x.start[id-1]
	}
	x.pos = make([]int32, x.start[len(x.start)-1])
	for i, g := range r {
		for _, id := range g.ids {
			x.pos[x.start[id]] = int32(i)
			x.start[id]++
		}
	}
	copy(x.start[1:], x.start)
	x.start[0] = 0
	return x
}

// count returns |R_id|, the length of id's postings; absent, and any ID
// past r's dictionary, has none.
func (x *postings) count(id uint32) int {
	if int(id)+1 >= len(x.start) {
		return 0
	}
	return int(x.start[id+1] - x.start[id])
}

// of returns id's postings.
func (x *postings) of(id uint32) []int32 {
	if int(id)+1 >= len(x.start) {
		return nil
	}
	return x.pos[x.start[id]:x.start[id+1]]
}

// rarest returns the element of an aligned S run with the fewest R
// postings, the first in the run on a tie. A run holding absent has no
// candidates.
func (x *postings) rarest(ids []uint32) uint32 {
	best, n := ids[0], x.count(ids[0])
	for _, id := range ids[1:] {
		if c := x.count(id); c < n {
			best, n = id, c
		}
	}
	return best
}

// Stats counts the work performed by a set-join algorithm.
type Stats struct {
	// PairsConsidered counts candidate (R-group, S-group) pairs
	// examined before verification.
	PairsConsidered int
	// Verifications counts full subset/equality checks.
	Verifications int
	// Comparisons counts element comparisons inside verifications.
	Comparisons int
	// Probes counts index/hash lookups.
	Probes int
}

// Predicate selects the set predicate of the join.
type Predicate int

const (
	// Containment is B ⊇ D.
	Containment Predicate = iota
	// Equal is B = D.
	Equal
	// Overlap is B ∩ D ≠ ∅.
	Overlap
)

// String renders the predicate.
func (p Predicate) String() string {
	switch p {
	case Containment:
		return "containment"
	case Equal:
		return "equality"
	default:
		return "overlap"
	}
}

// Algorithm is a set-join implementation. Join returns the (a, c)
// pairs as a binary relation.
type Algorithm interface {
	Name() string
	Predicate() Predicate
	Join(r, s []*Group) (*rel.Relation, Stats)
}

// result returns the empty result of a join of the R list r, over a
// dictionary based on r's source dictionary (rel.NewRelationOver): the
// pairs keep the IDs their keys have there, and an S key that
// dictionary lacks goes into the result's own tail. An empty r has no
// source, and its result a dictionary of its own.
func result(r []*Group) *rel.Relation {
	if len(r) == 0 {
		return rel.NewRelation(2)
	}
	return rel.NewRelationOver(2, r[0].dict.src)
}

// Reference computes any predicate naively on the groups' values; the
// tests' oracle. It shares nothing with the ID kernels it checks: each
// group's elements are decoded and sorted by Value.Less, and pairs are
// decided by a value merge, a canonical string key and a binary search.
func Reference(r, s []*Group, p Predicate) *rel.Relation {
	out := rel.NewRelation(2)
	rv, sv := decodeAll(r), decodeAll(s)
	var rKeys, sKeys []string // canonical keys, once per group per side
	if p == Equal {
		rKeys, sKeys = canonicalKeys(rv), canonicalKeys(sv)
	}
	for ri, gr := range r {
		for si, gs := range s {
			ok := false
			switch p {
			case Containment:
				ok = containsValues(rv[ri], sv[si])
			case Equal:
				ok = rKeys[ri] == sKeys[si]
			case Overlap:
				ok = slices.ContainsFunc(sv[si], func(e rel.Value) bool { return containsValue(rv[ri], e) })
			}
			if ok {
				out.Add(rel.Tuple{gr.Key, gs.Key})
			}
		}
	}
	return out
}

// decodeAll returns each group's elements as values sorted by
// Value.Less.
func decodeAll(gs []*Group) [][]rel.Value {
	out := make([][]rel.Value, len(gs))
	for i, g := range gs {
		for _, id := range g.ids {
			out[i] = append(out[i], g.dict.value(id))
		}
		slices.SortFunc(out[i], rel.Value.Cmp)
	}
	return out
}

// containsValues reports have ⊇ want for two sorted value lists by
// merging them.
func containsValues(have, want []rel.Value) bool {
	i := 0
	for _, w := range want {
		for i < len(have) && have[i].Less(w) {
			i++
		}
		if i == len(have) || !have[i].Equal(w) {
			return false
		}
		i++
	}
	return true
}

// canonicalKeys encodes each sorted value list injectively, with no
// shared dictionary: the concatenation of its values' Tuple.Key.
func canonicalKeys(vs [][]rel.Value) []string {
	keys := make([]string, len(vs))
	for i, elems := range vs {
		var b strings.Builder
		for _, e := range elems {
			b.WriteString(rel.Tuple{e}.Key())
		}
		keys[i] = b.String()
	}
	return keys
}

// containsValue reports whether v is in the sorted list, by binary
// search.
func containsValue(elems []rel.Value, v rel.Value) bool {
	_, ok := slices.BinarySearchFunc(elems, v, rel.Value.Cmp)
	return ok
}
