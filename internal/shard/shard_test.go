package shard_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"radiv/internal/division"
	"radiv/internal/exec"
	"radiv/internal/faultinject"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/setjoin"
	"radiv/internal/shard"
	"radiv/internal/workload"
)

// shardCounts is the sweep every equivalence test runs: delegation (1)
// and genuine partitioning (2, 4).
var shardCounts = []int{1, 2, 4}

// divisionStores builds one RandomDivision workload as an in-memory
// database and as its sealed n-shard partition.
func divisionStores(seed int64, n int) (*rel.Database, *shard.Snapshot) {
	d := workload.RandomDivision(seed).Database()
	return d, shard.FromStore(d, n).Publish()
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

// TestFromStoreReserveChangesNothing pins FromStore's partition (the
// name dates from when FromStore was Add plus a capacity hint) against
// an expectation computed here, for every kind of source: shard q
// holds exactly the source rows whose first-column router gid maps to
// q under exec.PartOf, in source order, as the source's own IDs over
// one copy of the source's dictionary that every shard shares — the
// same ID columns and dictionary as tuple-wise Database.Adds of those
// rows into a database over another copy — and the router lists each
// relation's first-column values in first-occurrence order (nothing at
// one shard, where nothing is routed).
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
		// The same data behind both kinds of source: the in-memory
		// database hands out its stored relations, and the
		// fault-injection wrapper is copied off its batch scan.
		backends := map[string]rel.ReadStore{
			"rel.Database": d,
			"faultinject":  faultinject.Wrap(d, faultinject.Fault{}),
		}
		for backend, src := range backends {
			for _, n := range shardCounts {
				snap := shard.FromStore(src, n).Publish()
				where := fmt.Sprintf("%s from %s at %d shards", label, backend, n)
				if snap.NumShards() != n {
					t.Fatalf("%s: %d shards", where, snap.NumShards())
				}
				want := make([]*rel.Database, n)
				for q := range want {
					want[q] = rel.NewDatabaseOver(d.Schema(), d.Dict().Clone())
				}
				dict := snap.ShardRel(0, d.Schema().Names()[0]).Interner()
				if dict == d.Dict() {
					t.Fatalf("%s: the shards share the source's dictionary, not a copy", where)
				}
				for _, name := range d.Schema().Names() {
					if err := samePartition(snap, d.Rel(name), name, want); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
				for _, name := range d.Schema().Names() {
					for q := range want {
						if snap.ShardRel(q, name).Interner() != dict {
							t.Fatalf("%s: %s on shard %d has a dictionary of its own", where, name, q)
						}
						if err := sameStorage(snap.ShardRel(q, name), want[q].Rel(name)); err != nil {
							t.Fatalf("%s: %s on shard %d: %v", where, name, q, err)
						}
					}
				}
				if dict.Len() != d.Dict().Len() {
					t.Fatalf("%s: the shards' dictionary holds %d values, the source's %d", where, dict.Len(), d.Dict().Len())
				}
			}
		}
	}
}

// samePartition compares the named relation's router in a snapshot
// with src's first-column values in first-occurrence order, and adds
// src's rows that route to shard q to want[q], in source order. Over a
// copy of src's dictionary those Adds intern nothing, so want holds
// what each shard must hold (sameStorage): the source's IDs.
func samePartition(snap *shard.Snapshot, src *rel.Relation, name string, want []*rel.Database) error {
	n := snap.NumShards()
	gidOf := map[rel.Value]int{}
	var router []rel.Value // by gid: first-column values in first-occurrence order
	for _, tup := range src.Tuples() {
		q := 0
		if len(tup) > 0 && n > 1 {
			gid, ok := gidOf[tup[0]]
			if !ok {
				gid = len(router)
				gidOf[tup[0]] = gid
				router = append(router, tup[0])
			}
			q = exec.PartOf(uint32(gid), n)
		}
		want[q].Add(name, tup)
	}
	rt := shard.RouterValues(snap, name)
	if len(rt) != len(router) {
		return fmt.Errorf("%s router has %d values, want %d", name, len(rt), len(router))
	}
	for gid, v := range router {
		if !rt[gid].Equal(v) {
			return fmt.Errorf("%s router diverges at gid %d: %s vs %s", name, gid, rt[gid], v)
		}
	}
	return nil
}

// TestShardRoutingGroupsWhole pins the partition invariant everything
// rests on: all tuples sharing a first column land in one shard, the
// one its router gid maps to.
func TestShardRoutingGroupsWhole(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, n := range []int{2, 4} {
			_, s := divisionStores(seed, n)
			for _, name := range []string{"R", "S"} {
				gidOf := map[rel.Value]int{}
				for gid, v := range shard.RouterValues(s, name) {
					gidOf[v] = gid
				}
				owner := map[rel.Value]int{}
				for q := 0; q < s.NumShards(); q++ {
					c := s.ShardRel(q, name).Cursor()
					for tup, ok := c.Next(); ok; tup, ok = c.Next() {
						if prev, seen := owner[tup[0]]; seen && prev != q {
							t.Fatalf("seed %d shards %d: %s group %s split across shards %d and %d", seed, n, name, tup[0], prev, q)
						}
						owner[tup[0]] = q
						gid, ok := gidOf[tup[0]]
						if !ok || exec.PartOf(uint32(gid), n) != q {
							t.Fatalf("seed %d shards %d: %s's router sends %s elsewhere, it lives in %d", seed, n, name, tup, q)
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

// TestShardSnapshotExecEquivalence ties the three operators on a
// published snapshot to the paper's expressions: Divide computes what
// the executor computes for the classical division expression and the
// equality division, ContainmentJoin and EqualityJoin what it computes
// for the set-join expressions, all run over the source database, at
// shard counts 1, 2 and 4 (compared as sets: the executor emits in its
// own order).
func TestShardSnapshotExecEquivalence(t *testing.T) {
	onExecutor := func(e ra.Expr, d rel.ReadStore) *rel.Relation {
		return plan.CompileIR(plan.FromRA(e), d, plan.Options{Optimize: true}).Execute()
	}
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		wantC := onExecutor(ra.DivisionExpr("R", "S"), d)
		wantE := onExecutor(ra.EqualityDivisionExpr("R", "S"), d)
		sr, ss := workload.RandomSetJoin(seed).Generate()
		sj := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
		for _, tup := range sr.Tuples() {
			sj.Add("R", tup)
		}
		for _, tup := range ss.Tuples() {
			sj.Add("S", tup)
		}
		wantSC := onExecutor(ra.SetContainmentJoinExpr("R", "S"), sj)
		wantSE := onExecutor(ra.SetEqualityJoinExpr("R", "S"), sj)
		for _, n := range shardCounts {
			snap := shard.FromStore(d, n).Publish()
			gotC, _ := shard.Divide(snap, "R", "S", division.Containment, 2)
			gotE, _ := shard.Divide(snap, "R", "S", division.Equality, 2)
			sjSnap := shard.FromStore(sj, n).Publish()
			gotSC, _ := shard.ContainmentJoin(sjSnap, "R", "S", 2)
			gotSE, _ := shard.EqualityJoin(sjSnap, "R", "S", 2)
			for _, c := range []struct {
				op        string
				want, got *rel.Relation
			}{{"divide", wantC, gotC}, {"equality divide", wantE, gotE}, {"containment join", wantSC, gotSC}, {"equality join", wantSE, gotSE}} {
				if !c.got.Equal(c.want) {
					t.Fatalf("seed %d shards %d: %s has %d tuples, the executor's %d, or they differ", seed, n, c.op, c.got.Len(), c.want.Len())
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
			s := shard.FromStore(d, n).Publish()
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
			s := shard.FromStore(c.d, n).Publish()
			for q := range n {
				local := s.ShardRel(q, "R")
				_, st := shardContainment(local, sG)
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
// pair list per group made it 2.7), FromStore's allocations do not
// scale with the tuple count (buffers and reservations per relation
// and shard, never per tuple), and FromStore, Publish and the three
// operators on a division and a set-join instance of 86 466 tuples
// allocate at most 6.7 MB: 6.08 MB measured plus 10 %, where a
// dictionary per shard, the routers' interners and the translations
// between them took 6.86 MB.
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
		s := shard.FromStore(c.d, 2).Publish()
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
			_, st := shardContainment(local, sG)
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

	both := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1, "P": 2, "Q": 2}))
	dr, ds := workload.Division{Groups: 2000, GroupSize: 20, Dist: workload.Uniform, DivisorSize: 20,
		MatchFraction: 0.3, Domain: 1000, Seed: 1}.Generate()
	sp, sq := workload.SetJoin{RGroups: 600, SGroups: 600, MeanSize: 8, Dist: workload.Zipf,
		Domain: 300, ContainFraction: 0.2, Seed: 1}.Generate()
	for name, r := range map[string]*rel.Relation{"R": dr, "S": ds, "P": sp, "Q": sq} {
		for _, tup := range r.Tuples() {
			both.Add(name, tup)
		}
	}
	const ceiling = 6_700_000
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := shard.FromStore(both, 2).Publish()
		shard.Divide(s, "R", "S", division.Containment, 2)
		shard.ContainmentJoin(s, "P", "Q", 2)
		shard.EqualityJoin(s, "P", "Q", 2)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if both.Size() != 86466 || least > ceiling {
		t.Errorf("FromStore, Publish and the three operators on %d tuples: %d bytes allocated, want at most %d on 86466", both.Size(), least, ceiling)
	}
}

// TestShardSnapshotIndependentOfSource pins the copy of the source's
// dictionary that FromStore makes once: after FromStore(src,
// 4).Publish(), two goroutines add new values and rows to src (one at
// a time: a database has one writer) while two others run the three
// operators on the snapshot, and every result is byte-identical to the
// one taken before the writes. A snapshot that shared src's dictionary
// would race with the writers under -race, and would see S's new
// divisor values.
func TestShardSnapshotIndependentOfSource(t *testing.T) {
	src := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1, "P": 2, "Q": 2}))
	r, s := workload.Division{Groups: 60, GroupSize: 6, Dist: workload.Uniform, DivisorSize: 4,
		MatchFraction: 0.5, Domain: 30, Seed: 3}.Generate()
	p, q := workload.SetJoin{RGroups: 40, SGroups: 40, MeanSize: 4, Dist: workload.Uniform,
		Domain: 20, ContainFraction: 0.3, Seed: 3}.Generate()
	for name, rl := range map[string]*rel.Relation{"R": r, "S": s, "P": p, "Q": q} {
		for _, tup := range rl.Tuples() {
			src.Add(name, tup)
		}
	}
	snap := shard.FromStore(src, 4).Publish()
	run := func() [3]*rel.Relation {
		d, _ := shard.Divide(snap, "R", "S", division.Containment, 2)
		c, _ := shard.ContainmentJoin(snap, "P", "Q", 2)
		e, _ := shard.EqualityJoin(snap, "P", "Q", 2)
		return [3]*rel.Relation{d, c, e}
	}
	want := run()
	if want[0].Len() == 0 || want[1].Len() == 0 {
		t.Fatalf("the instance has an empty division (%d) or containment join (%d)", want[0].Len(), want[1].Len())
	}
	dictLen := src.Dict().Len()
	var mu sync.Mutex // the writers take turns
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range int64(200) {
				mu.Lock()
				v := fmt.Sprintf("new-%d-%d", w, i)
				src.AddStrs("S", v)
				src.Add("R", rel.Tuple{rel.Str(v), rel.Int(i)})
				src.AddInts("R", i%60, 1000+i)
				src.Add("P", rel.Tuple{rel.Int(i % 40), rel.Str(v)})
				src.Add("Q", rel.Tuple{rel.Str(v), rel.Int(i % 20)})
				mu.Unlock()
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				for i, got := range run() {
					if err := sameStorage(want[i], got); err != nil {
						t.Errorf("operator %d while the source is written: %v", i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if src.Dict().Len() <= dictLen {
		t.Fatalf("the writers added no value to the source's dictionary (%d)", dictLen)
	}
	for i, got := range run() {
		if err := sameStorage(want[i], got); err != nil {
			t.Errorf("operator %d after the writes: %v", i, err)
		}
	}
}

// TestShardConcurrentReaders pins "any number of goroutines may run
// the operators on one snapshot" under the race detector, on relations
// most shards never received a tuple of (the regression: lazily
// materializing those empty shard-local relations was a map write on
// the read path). S and Q hold one group each, so three of four shards
// hold none of either; four goroutines run the three operators,
// each result byte-identical to the sequential algorithm.
func TestShardConcurrentReaders(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1, "P": 2, "Q": 2}))
	d.AddInts("S", 7)
	d.AddInts("Q", 1, 3)
	d.AddInts("Q", 1, 5)
	for i := int64(0); i < 40; i++ {
		d.AddInts("R", i%9, i%8)
		d.AddInts("P", i%6, i%7)
	}
	wantD, _ := division.Hash{}.Divide(d.Rel("R"), d.Rel("S"), division.Containment)
	pG, qG := setjoin.Groups(d.Rel("P")), setjoin.Groups(d.Rel("Q"))
	wantC, _ := setjoin.SignatureContainment{}.Join(pG, qG)
	wantE, _ := setjoin.HashEquality{}.Join(pG, qG)
	if wantD.Len() == 0 || wantC.Len() == 0 {
		t.Fatalf("the instance has an empty division (%d) or containment join (%d)", wantD.Len(), wantC.Len())
	}
	s := shard.FromStore(d, 4).Publish()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				gotD, _ := shard.Divide(s, "R", "S", division.Containment, 2)
				gotC, _ := shard.ContainmentJoin(s, "P", "Q", 2)
				gotE, _ := shard.EqualityJoin(s, "P", "Q", 2)
				for _, c := range []struct {
					op        string
					want, got *rel.Relation
				}{{"divide", wantD, gotD}, {"containment", wantC, gotC}, {"equality", wantE, gotE}} {
					if err := sameStorage(c.want, c.got); err != nil {
						t.Errorf("concurrent %s: %v", c.op, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardOperatorPanics pins one panic prefix at every shard count:
// each operator rejects a relation outside the schema and one of the
// wrong arity with a "shard: " panic, at one shard (which runs without
// a merge) as at two and four.
func TestShardOperatorPanics(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1, "T": 3}))
	d.AddInts("R", 1, 2)
	d.AddInts("S", 2)
	d.AddInts("T", 1, 2, 3)
	ops := map[string]func(s *shard.Snapshot, r, sName string){
		"Divide": func(s *shard.Snapshot, r, sName string) {
			shard.Divide(s, r, sName, division.Containment, 1)
		},
		"ContainmentJoin": func(s *shard.Snapshot, r, sName string) { shard.ContainmentJoin(s, r, sName, 1) },
		"EqualityJoin":    func(s *shard.Snapshot, r, sName string) { shard.EqualityJoin(s, r, sName, 1) },
	}
	for _, n := range shardCounts {
		s := shard.FromStore(d, n).Publish()
		for name, op := range ops {
			for _, c := range []struct{ label, r, s string }{
				{"unknown", "R", "Nope"},
				{"wrong arity", "T", "S"},
			} {
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					op(s, c.r, c.s)
					return ""
				}()
				if !strings.HasPrefix(msg, "shard: ") {
					t.Errorf("shards %d %s %s: panic %q, want a \"shard: \" panic", n, name, c.label, msg)
				}
			}
		}
	}
}

// shardContainment runs the containment kernel on one shard's R for its
// counts; the ranks it is given do not move them.
func shardContainment(local *rel.Relation, s []*setjoin.Group) (setjoin.ShardPairs, setjoin.Stats) {
	r := setjoin.GroupsFromBatches(local.BatchScan())
	return setjoin.ShardContainment(r, s, make([]uint32, len(r)))
}
