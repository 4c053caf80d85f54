package shard_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"radiv/internal/division"
	"radiv/internal/faultinject"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/setjoin"
	"radiv/internal/shard"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// shardCounts is the sweep every equivalence test runs: delegation (1)
// and genuine partitioning (2, 4).
var shardCounts = []int{1, 2, 4}

// divisionStores builds one RandomDivision workload as an in-memory
// database and as a sharded database with n shards holding identical
// data.
func divisionStores(seed int64, n int) (*rel.Database, *shard.Database) {
	d := workload.RandomDivision(seed).Database()
	return d, shard.FromStore(d, n)
}

// sameTuples compares two relations byte for byte: same arity, same
// tuples, same insertion order.
func sameTuples(a, b *rel.Relation) error {
	if a.Arity() != b.Arity() {
		return fmt.Errorf("arity %d vs %d", a.Arity(), b.Arity())
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("cardinality %d vs %d", a.Len(), b.Len())
	}
	at, bt := a.Tuples(), b.Tuples()
	for i := range at {
		if !at[i].Equal(bt[i]) {
			return fmt.Errorf("position %d: %s vs %s", i, at[i], bt[i])
		}
	}
	return nil
}

// sameStorage is sameTuples plus the interned form: same ID columns
// and the same dictionary, value for value in ID order — what "built
// the same way" means for two relations, beyond holding the same
// tuples in the same order.
func sameStorage(a, b *rel.Relation) error {
	if err := sameTuples(a, b); err != nil {
		return err
	}
	ac, ad := a.IDColumns()
	bc, bd := b.IDColumns()
	for k := range ac {
		if !slices.Equal(ac[k], bc[k]) {
			return fmt.Errorf("ID column %d differs", k)
		}
	}
	if ad.Len() != bd.Len() {
		return fmt.Errorf("dictionary of %d values vs %d", ad.Len(), bd.Len())
	}
	for id := 0; id < ad.Len(); id++ {
		if !ad.Value(uint32(id)).Equal(bd.Value(uint32(id))) {
			return fmt.Errorf("dictionary ID %d: %s vs %s", id, ad.Value(uint32(id)), bd.Value(uint32(id)))
		}
	}
	return nil
}

// TestShardStoreContract pins the rel.Store contract on the sharded
// backend: scans yield global insertion order (byte-identical to the
// in-memory database), Len/Size/Contains agree, and set semantics
// holds across shards.
func TestShardStoreContract(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, n := range shardCounts {
			d, s := divisionStores(seed, n)
			if !rel.StoresEqual(d, s) || !s.Equal(d) {
				t.Fatalf("seed %d shards %d: stores not equal", seed, n)
			}
			if d.Size() != s.Size() {
				t.Fatalf("seed %d shards %d: size %d vs %d", seed, n, d.Size(), s.Size())
			}
			for _, name := range d.Schema().Names() {
				dv, sv := d.View(name), s.View(name)
				if dv.Len() != sv.Len() {
					t.Fatalf("seed %d shards %d: %s Len %d vs %d", seed, n, name, dv.Len(), sv.Len())
				}
				dts, sts := scanRows(dv, 0), scanRows(sv, 0)
				if len(dts) != len(sts) {
					t.Fatalf("seed %d shards %d: %s scans %d tuples vs %d", seed, n, name, len(dts), len(sts))
				}
				for i, dt := range dts {
					if !dt.Equal(sts[i]) {
						t.Fatalf("seed %d shards %d: %s scan order diverges at %d: %s vs %s", seed, n, name, i, dt, sts[i])
					}
					if !sv.Contains(dt) {
						t.Fatalf("seed %d shards %d: %s missing scanned tuple %s", seed, n, name, dt)
					}
				}
				// A second scan replays the same sequence.
				if err := scanMatches(sv, dts); err != nil {
					t.Fatalf("seed %d shards %d: %s rescan: %v", seed, n, name, err)
				}
			}
			// Duplicate adds are rejected globally.
			if d.Rel("R").Len() > 0 && s.Add("R", d.Rel("R").At(0)) {
				t.Fatalf("seed %d shards %d: duplicate add accepted", seed, n)
			}
		}
	}
}

// TestFromStoreReserveChangesNothing pins FromStore's bulk load
// against the incremental write path (the name dates from when
// FromStore was Add plus a capacity hint): for every kind of source it
// builds exactly what tuple-by-tuple Adds into an empty store build —
// the same shard-local relations down to ID columns and dictionary
// order, the same routing dictionaries, versions and placement-derived
// global scan order — and it leaves the routers, their sealed flags and
// the placement log in the state Add expects, so the two stores stay
// identical through further Adds and another Publish.
func TestFromStoreReserveChangesNothing(t *testing.T) {
	sources := map[string]*rel.Database{}
	for seed := int64(0); seed < 4; seed++ {
		sources[fmt.Sprintf("division seed %d", seed)] = workload.RandomDivision(seed).Database()
	}
	// String values, arities 0, 1 and 3, and an empty relation.
	mixed := rel.NewDatabase(rel.NewSchema(map[string]int{"Empty": 2, "Flag": 0, "Names": 1, "Triples": 3}))
	mixed.Add("Flag", rel.Tuple{})
	for i := 0; i < 60; i++ {
		mixed.AddStrs("Names", fmt.Sprintf("name-%d", i%23))
		mixed.Add("Triples", rel.Tuple{rel.Str(fmt.Sprintf("k%d", i%7)), rel.Int(int64(i)), rel.Str(fmt.Sprintf("v%d", i%5))})
	}
	sources["strings and arities 0/1/3"] = mixed
	// One key owns three quarters of the tuples.
	skewed := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for i := int64(0); i < 400; i++ {
		if i%4 == 0 {
			skewed.AddInts("R", 1+i, i%9)
		} else {
			skewed.AddInts("R", 0, i)
		}
	}
	skewed.AddInts("S", 3)
	sources["one heavy key"] = skewed

	for label, d := range sources {
		// The same data behind every kind of backend: the in-memory
		// database and a published snapshot hand out their stored
		// relations, and a sharded snapshot and the fault-injection
		// wrapper are copied off their batch scans.
		backends := map[string]rel.ReadStore{
			"rel.Database":   d,
			"rel.Snapshot":   rel.EpochFromStore(d).Snapshot(),
			"shard.Snapshot": shard.FromStore(d, 2).Snapshot(),
			"faultinject":    faultinject.Wrap(d, faultinject.Fault{}),
		}
		for backend, src := range backends {
			for _, n := range shardCounts {
				bulk := shard.FromStore(src, n)
				plain := shard.New(d.Schema(), n)
				for _, name := range d.Schema().Names() {
					for _, tup := range d.Rel(name).Tuples() {
						plain.Add(name, tup)
					}
				}
				plain.Publish()
				where := fmt.Sprintf("%s from %s at %d shards", label, backend, n)
				if err := sameShardedStores(bulk, plain); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				// A duplicate, a new element under a known key, and new
				// keys, in every relation that has columns to vary.
				for _, name := range d.Schema().Names() {
					if d.Rel(name).Len() == 0 || d.Rel(name).Arity() == 0 {
						continue
					}
					first := d.Rel(name).At(0)
					fresh := first.Clone()
					fresh[len(fresh)-1] = rel.Str("a value nobody has")
					newKey := first.Clone()
					newKey[0] = rel.Int(-1)
					for _, tup := range []rel.Tuple{first, fresh, newKey, fresh} {
						if b, p := bulk.Add(name, tup), plain.Add(name, tup); b != p {
							t.Fatalf("%s: Add(%s, %s) = %v after the bulk load, %v after Adds", where, name, tup, b, p)
						}
					}
				}
				// Before Publish the new tuples are the writer's alone.
				if err := sameShardedStores(bulk, plain); err != nil {
					t.Fatalf("%s, after further Adds: %v", where, err)
				}
				bulk.Publish()
				plain.Publish()
				if err := sameShardedStores(bulk, plain); err != nil {
					t.Fatalf("%s, after further Adds and Publish: %v", where, err)
				}
			}
		}
	}
}

// sameShardedStores compares two sharded databases of one schema and
// shard count in everything a reader or a later Add can observe, on the
// writer's view and on the published snapshot: per shard the stored
// relations (sameStorage), per relation the routing dictionary, the
// version and the global scan order.
func sameShardedStores(a, b *shard.Database) error {
	for _, name := range a.Schema().Names() {
		for _, src := range [][2]shard.Source{{a, b}, {a.Snapshot(), b.Snapshot()}} {
			for q := 0; q < a.NumShards(); q++ {
				if err := sameStorage(src[0].ShardRel(q, name), src[1].ShardRel(q, name)); err != nil {
					return fmt.Errorf("%s on shard %d of %T: %v", name, q, src[0], err)
				}
			}
			ar, br := src[0].Router(name), src[1].Router(name)
			if ar.Len() != br.Len() {
				return fmt.Errorf("%s router of %T has %d values, want %d", name, src[0], ar.Len(), br.Len())
			}
			for id := 0; id < br.Len(); id++ {
				if !ar.Value(uint32(id)).Equal(br.Value(uint32(id))) {
					return fmt.Errorf("%s router of %T diverges at ID %d", name, src[0], id)
				}
			}
			am, _ := rel.Materialized(src[0], name)
			bm, _ := rel.Materialized(src[1], name)
			if err := sameTuples(am, bm); err != nil {
				return fmt.Errorf("%s global order of %T: %v", name, src[0], err)
			}
		}
		if av, bv := a.Snapshot().Version(name), b.Snapshot().Version(name); av != bv {
			return fmt.Errorf("%s version %d, want %d", name, av, bv)
		}
	}
	return nil
}

// TestShardSingleShardDelegation pins the zero-overhead contract at
// shard count 1: no routing state exists and the view is the
// underlying relation itself, exactly what the in-memory database
// would hand out.
func TestShardSingleShardDelegation(t *testing.T) {
	d, s := divisionStores(1, 1)
	if s.Router("R").Len() != 0 {
		t.Errorf("single-shard store keeps a router")
	}
	v, ok := s.View("R").(*rel.Relation)
	if !ok {
		t.Fatalf("single-shard View is a %T, want the underlying *rel.Relation", s.View("R"))
	}
	if v != s.Shard(0).Rel("R") {
		t.Errorf("single-shard View is not the shard-local relation itself")
	}
	if !rel.StoresEqual(d, s) {
		t.Errorf("single-shard store diverges from source")
	}
}

// TestShardRoutingGroupsWhole pins the partition invariant everything
// rests on: all tuples sharing a first column land in one shard, and
// ShardOf reports it.
func TestShardRoutingGroupsWhole(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, n := range []int{2, 4} {
			_, s := divisionStores(seed, n)
			for _, name := range []string{"R", "S"} {
				owner := map[rel.Value]int{}
				for q := 0; q < s.NumShards(); q++ {
					c := s.Shard(q).Rel(name).Cursor()
					for tup, ok := c.Next(); ok; tup, ok = c.Next() {
						if prev, seen := owner[tup[0]]; seen && prev != q {
							t.Fatalf("seed %d shards %d: %s group %s split across shards %d and %d", seed, n, name, tup[0], prev, q)
						}
						owner[tup[0]] = q
						if got := s.ShardOf(name, tup); got != q {
							t.Fatalf("seed %d shards %d: ShardOf(%s)=%d, tuple lives in %d", seed, n, tup, got, q)
						}
					}
				}
			}
		}
	}
}

// TestShardedDivisionEquivalence is the acceptance criterion for
// division: shard.Divide is byte-identical to the sequential
// division.Hash on the merged relations, under both semantics, at
// shard counts 1, 2 and 4, across randomized workloads and worker
// counts.
func TestShardedDivisionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, n := range shardCounts {
			d, s := divisionStores(seed, n)
			for _, sem := range []division.Semantics{division.Containment, division.Equality} {
				want, _ := division.Hash{}.Divide(d.Rel("R"), d.Rel("S"), sem)
				for _, workers := range []int{1, 2, 4} {
					got, st := shard.Divide(s, "R", "S", sem, workers)
					if err := sameTuples(want, got); err != nil {
						t.Fatalf("seed %d shards %d workers %d %s: %v", seed, n, workers, sem, err)
					}
					if len(st.ShardResident) != n {
						t.Fatalf("seed %d shards %d: %d resident entries", seed, n, len(st.ShardResident))
					}
				}
			}
		}
	}
}

// TestShardedSetJoinEquivalence is the acceptance criterion for the
// set joins: both shard-local joins are byte-identical to their
// sequential counterparts at shard counts 1, 2 and 4 — tuples,
// insertion order, and the result's ID columns and dictionary order
// too, since the merges insert interned pairs rather than tuples. Two
// more sets of cases run at 1, 2, 3 and 4 shards: (c) S holds elements
// some shard's R groups lack, so each shard's alignment of S drops
// them differently, and (d) int 1 and string "1" share an element
// column.
func TestShardedSetJoinEquivalence(t *testing.T) {
	type tc struct {
		label  string
		r, s   *rel.Relation
		shards []int
	}
	var cases []tc
	for seed := int64(0); seed < 20; seed++ {
		r, s := workload.RandomSetJoin(seed).Generate()
		cases = append(cases, tc{fmt.Sprintf("seed %d", seed), r, s, shardCounts})
	}
	// (c): every third S set gains elements from outside R's domain; R
	// sets are small, so a shard's groups also miss part of R's own
	// domain. (d): elements alternate between an int and its string.
	for seed := int64(0); seed < 10; seed++ {
		r, s := workload.SetJoin{RGroups: 40, SGroups: 40, MeanSize: 3, Dist: workload.Uniform,
			Domain: 20, ContainFraction: 0.3, Seed: seed}.Generate()
		wide := rel.NewRelation(2)
		for _, tup := range s.Tuples() {
			wide.Add(tup)
			if tup[0].AsInt()%3 == 0 {
				wide.Add(rel.Tuple{tup[0], rel.Int(tup[1].AsInt() + 20)})
			}
		}
		cases = append(cases, tc{fmt.Sprintf("(c) seed %d", seed), r, wide, []int{1, 2, 3, 4}})
		mixed := func(in *rel.Relation) *rel.Relation {
			out := rel.NewRelation(2)
			for i, tup := range in.Tuples() {
				if i%2 == 1 {
					tup = rel.Tuple{tup[0], rel.Str(tup[1].String())}
				}
				out.Add(tup)
			}
			return out
		}
		cases = append(cases, tc{fmt.Sprintf("(d) seed %d", seed), mixed(r), mixed(s), []int{1, 2, 3, 4}})
	}
	for _, c := range cases {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
		for _, tup := range c.r.Tuples() {
			d.Add("R", tup)
		}
		for _, tup := range c.s.Tuples() {
			d.Add("S", tup)
		}
		rG, sG := setjoin.Groups(d.Rel("R")), setjoin.Groups(d.Rel("S"))
		wantC, _ := setjoin.SignatureContainment{}.Join(rG, sG)
		wantE, _ := setjoin.HashEquality{}.Join(rG, sG)
		if !wantC.Equal(setjoin.Reference(rG, sG, setjoin.Containment)) || !wantE.Equal(setjoin.Reference(rG, sG, setjoin.Equal)) {
			t.Fatalf("%s: the sequential joins disagree with setjoin.Reference", c.label)
		}
		for _, n := range c.shards {
			s := shard.FromStore(d, n)
			for _, workers := range []int{1, 2, 4} {
				gotC, _ := shard.ContainmentJoin(s, "R", "S", workers)
				if err := sameStorage(wantC, gotC); err != nil {
					t.Fatalf("containment %s shards %d workers %d: %v", c.label, n, workers, err)
				}
				gotE, _ := shard.EqualityJoin(s, "R", "S", workers)
				if err := sameStorage(wantE, gotE); err != nil {
					t.Fatalf("equality %s shards %d workers %d: %v", c.label, n, workers, err)
				}
			}
		}
	}
}

// TestShardedSetJoinPostings pins the pairs each shard's containment
// join considers, Σ_{s∈S} min_{e∈s} |R_e| over the shard's R groups,
// recomputed here from the shard's tuples, on two shapes. In the dense
// one every set holds element 0, every R set lacks one of 1..4 and
// every S set holds all four, so no R set contains an S set while each
// S element lies in about three quarters of a shard's R sets: the
// count comes close to the signature nested loop's |R|·|S|. The Zipf
// case is shaped like the benchmark's sharded set join, skewed set
// sizes over a domain as large as the group count, and the count is a
// small part of |R|·|S|. Both are byte-identical to
// SignatureContainment at 1–4 shards and 1, 2 and 4 workers.
func TestShardedSetJoinPostings(t *testing.T) {
	dense := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	const domain = 12
	for g := int64(0); g < 120; g++ {
		for e := int64(0); e < domain; e++ {
			if e != 1+g%4 {
				dense.AddInts("R", g, e)
			}
			if e != 5+g%(domain-5) {
				dense.AddInts("S", g, e)
			}
		}
	}
	zr, zs := workload.SetJoin{RGroups: 300, SGroups: 300, MeanSize: 6, Dist: workload.Zipf,
		Domain: 300, ContainFraction: 0.2, Seed: 1}.Generate()
	zipf := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, tup := range zr.Tuples() {
		zipf.Add("R", tup)
	}
	for _, tup := range zs.Tuples() {
		zipf.Add("S", tup)
	}
	for _, c := range []struct {
		label  string
		d      *rel.Database
		sparse bool
	}{{"dense", dense, false}, {"zipf", zipf, true}} {
		rG, sG := setjoin.Groups(c.d.Rel("R")), setjoin.Groups(c.d.Rel("S"))
		want, _ := setjoin.SignatureContainment{}.Join(rG, sG)
		if c.sparse && want.Len() == 0 {
			t.Fatalf("%s: the instance has no pairs", c.label)
		}
		for n := 1; n <= 4; n++ {
			s := shard.FromStore(c.d, n)
			for q := range n {
				local := s.ShardRel(q, "R")
				_, st := setjoin.ShardContainment(setjoin.GroupsFromBatches(local.BatchScan()), sG)
				sigPairs, count := len(setjoin.Groups(local))*len(sG), postingsCount(local, c.d.Rel("S"))
				if st.PairsConsidered != count || (c.sparse && 4*count >= sigPairs) || (!c.sparse && 2*count < sigPairs) {
					t.Fatalf("%s shards %d shard %d: %d pairs considered, want the postings count %d (signature: %d)", c.label, n, q, st.PairsConsidered, count, sigPairs)
				}
			}
			for _, workers := range []int{1, 2, 4} {
				got, _ := shard.ContainmentJoin(s, "R", "S", workers)
				if err := sameStorage(want, got); err != nil {
					t.Fatalf("%s shards %d workers %d: %v", c.label, n, workers, err)
				}
			}
		}
	}
}

// postingsCount is Σ_{s∈S} min_{e∈s} |R_e| over the tuples of a binary
// R and S, where |R_e| is the number of R groups holding e: the pairs
// the postings kernel considers.
func postingsCount(r, s *rel.Relation) int {
	postings := map[rel.Value]int{}
	for _, tup := range r.Tuples() {
		postings[tup[1]]++
	}
	rarest := map[rel.Value]int{}
	for _, tup := range s.Tuples() {
		if m, ok := rarest[tup[0]]; !ok || postings[tup[1]] < m {
			rarest[tup[0]] = postings[tup[1]]
		}
	}
	count := 0
	for _, m := range rarest {
		count += m
	}
	return count
}

// TestShardedAllocationCeilings pins the interned-ID data path by what
// it does not allocate, at 2 shards: the containment join makes well
// under one allocation per emitted pair (a rel.Tuple per pair and a
// pair list per group made it 2.7), and FromStore's allocations do not
// scale with the tuple count (buffers and reservations per relation
// and shard, never per tuple).
func TestShardedAllocationCeilings(t *testing.T) {
	// 200 R sets over a 40-value domain, each holding all but one value;
	// 200 two-element S sets: an S set is contained unless it names the
	// R set's missing value, so 200 × 200 × 0.95 = 38 000 pairs, and
	// each S element lies in 195 R sets. Bulk is there for the load
	// only: 100 000 more tuples.
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2, "Bulk": 2}))
	for g := int64(0); g < 200; g++ {
		for e := int64(0); e < 40; e++ {
			if e != g%40 {
				d.AddInts("R", g, e)
			}
		}
		d.AddInts("S", g, g%40)
		d.AddInts("S", g, (g+7)%40)
	}
	for i := int64(0); i < 100000; i++ {
		d.AddInts("Bulk", i/100, i%100)
	}
	// The same shape with a rare element: 1000 R sets and 400 S sets
	// each also hold one of 100..109, so an S set's rarest element lies
	// in 100 R sets and the postings probe considers a tenth of
	// |R|·|S|, with 400 × 100 × 0.95 = 38 000 pairs again.
	rare := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for g := int64(0); g < 1000; g++ {
		for e := int64(0); e < 40; e++ {
			if e != g%40 {
				rare.AddInts("R", g, e)
			}
		}
		rare.AddInts("R", g, 100+g%10)
		if g < 400 {
			rare.AddInts("S", g, g%40)
			rare.AddInts("S", g, (g+7)%40)
			rare.AddInts("S", g, 100+g%10)
		}
	}
	for _, c := range []struct {
		label string
		d     *rel.Database
	}{{"dense", d}, {"rare", rare}} {
		s := shard.FromStore(c.d, 2).Snapshot()
		pairs := 0
		allocs := testing.AllocsPerRun(3, func() {
			out, _ := shard.ContainmentJoin(s, "R", "S", 2)
			pairs = out.Len()
		})
		if pairs < 20000 {
			t.Fatalf("%s: the instance yields %d pairs, the ceiling is stated for at least 20000", c.label, pairs)
		}
		if perPair := allocs / float64(pairs); perPair > 0.5 {
			t.Errorf("%s: ContainmentJoin: %.0f allocations for %d pairs (%.2f each), want at most 0.5 each", c.label, allocs, pairs, perPair)
		}
		if c.d != rare {
			continue
		}
		sG := setjoin.Groups(c.d.Rel("S"))
		for q := range 2 {
			local := s.ShardRel(q, "R")
			_, st := setjoin.ShardContainment(setjoin.GroupsFromBatches(local.BatchScan()), sG)
			if sigPairs := len(setjoin.Groups(local)) * len(sG); st.PairsConsidered != postingsCount(local, c.d.Rel("S")) || 5*st.PairsConsidered > sigPairs {
				t.Errorf("rare shard %d: %d pairs considered, want the postings count %d, at most a fifth of %d", q, st.PairsConsidered, postingsCount(local, c.d.Rel("S")), sigPairs)
			}
		}
	}
	tuples := d.Size()
	allocs := testing.AllocsPerRun(3, func() { shard.FromStore(d, 2) })
	if perTuple := allocs / float64(tuples); perTuple > 0.01 {
		t.Errorf("FromStore: %.0f allocations for %d tuples (%.4f each), want at most 0.01 each", allocs, tuples, perTuple)
	}
}

// TestShardedEvaluatorEquivalence is the acceptance criterion for the
// algebra layers: the materialized ra/sa/xra evaluators — the oracle
// every execution is tested against — evaluate byte-identically over a
// sharded store and the in-memory database at shard counts 1, 2 and 4:
// the Store abstraction leaks nothing. (The executor over sharded
// stores is a dimension of internal/plan's executor suite.)
func TestShardedEvaluatorEquivalence(t *testing.T) {
	raExpr := ra.DivisionExpr("R", "S")
	saExpr := sa.NewProject([]int{1}, sa.NewAntijoin(sa.R("R", 2), ra.Eq(2, 1), sa.R("S", 1)))
	xraExpr := xra.ContainmentDivision("R", "S")
	for seed := int64(0); seed < 12; seed++ {
		for _, n := range shardCounts {
			d, s := divisionStores(seed, n)
			if err := sameTuples(ra.Eval(raExpr, d), ra.Eval(raExpr, s)); err != nil {
				t.Fatalf("ra seed %d shards %d: %v", seed, n, err)
			}
			if err := sameTuples(sa.Eval(saExpr, d), sa.Eval(saExpr, s)); err != nil {
				t.Fatalf("sa seed %d shards %d: %v", seed, n, err)
			}
			if err := sameTuples(xra.Eval(xraExpr, d), xra.Eval(xraExpr, s)); err != nil {
				t.Fatalf("xra seed %d shards %d: %v", seed, n, err)
			}
		}
	}
}

// TestShardedEvalResultOwnership extends the result-ownership contract
// to sharded stores: a bare-relation evaluation must hand back a
// caller-owned snapshot, never a view into a shard.
func TestShardedEvalResultOwnership(t *testing.T) {
	_, s := divisionStores(3, 2)
	before := s.View("R").Len()
	res := ra.Eval(ra.R("R", 2), s)
	res.Add(rel.Ints(-99, -99))
	if s.View("R").Len() != before || s.View("R").Contains(rel.Ints(-99, -99)) {
		t.Errorf("mutating a bare-relation result wrote through to the sharded store")
	}
}

// TestShardConcurrentReaders pins the "concurrent readers are safe
// once loading is complete" contract under the race detector: several
// goroutines scan and probe a relation that most shards never
// received a tuple of (the regression: lazily materializing those
// empty shard-local relations was a map write on the read path).
func TestShardConcurrentReaders(t *testing.T) {
	s := shard.New(rel.NewSchema(map[string]int{"R": 2, "S": 1}), 4)
	s.AddInts("S", 7) // one group: three shards hold no S at all
	for i := int64(0); i < 40; i++ {
		s.AddInts("R", i, i%7)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				v := s.View("S")
				if n := len(scanRows(v, 0)); n != 1 || !v.Contains(rel.Ints(7)) || v.Contains(rel.Ints(8)) {
					t.Errorf("concurrent reader saw wrong contents (n=%d)", n)
					return
				}
				if got := plan.CompileIR(plan.NRel("S", 1), s, plan.Options{}).Execute(); got.Len() != 1 {
					t.Errorf("concurrent execution saw %d tuples", got.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}
