package main

// Seeded input generators. -seed is the only input: equal seeds give
// byte-identical files. Every size that a timing depends on (relation
// cardinalities, group-size multiset, number of matching groups) is
// fixed by the spec, not drawn, so runs on different seeds do the same
// amount of work on different data.
//
// Files are written line by line in generation order — not through
// rel.WriteText, which sorts — and the program under test receives
// only the files. The expected output of every workload is derived
// here, from how the instance was built (which groups were given all
// of S, which bars were given only unliked beers) or, for the set
// joins, by a bitset brute force over the generated sets; none of it
// touches the radiv packages.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// dataset is one workload's generated input and its expected output.
type dataset struct {
	// file is the text database, in generation order.
	file []byte
	// tuples is the number of tuple lines in file.
	tuples int
	// sizes records relation and result cardinalities for the result
	// JSON and the README tables.
	sizes map[string]int
	// expected maps an output name ("stdout" for the raquery
	// workloads; "divide", "containment", "equality" for
	// direct-sharded) to its canonical text: one "(v1, v2)" line per
	// tuple, in rel.Tuple order.
	expected map[string]string
}

// divisionSpec describes R(A,B) ÷ S(B). Group g has A = g; S holds
// the values divisorBase+i, disjoint from the Extra domain, so a group
// contains S exactly when it was built to.
type divisionSpec struct {
	Groups      int // distinct A values
	DivisorSize int // |S|
	Matching    int // groups built ⊇ S
	NearMiss    int // S elements given to every other group (< DivisorSize)
	Extra       int // distinct non-S B's given to every group
	Domain      int // size of the non-S B domain
}

const divisorBase = 1_000_000

func (sp divisionSpec) scaled(f float64) divisionSpec {
	sp.Groups = scaleInt(sp.Groups, f)
	sp.Matching = scaleInt(sp.Matching, f)
	return sp
}

// writeTo appends the R and S declarations and tuples to buf and
// returns the tuple count and the matching groups in ascending order.
func (sp divisionSpec) writeTo(buf *bytes.Buffer, rng *rand.Rand) (tuples int, matching []int) {
	isMatch := make([]bool, sp.Groups)
	for _, g := range rng.Perm(sp.Groups)[:sp.Matching] {
		isMatch[g] = true
	}
	buf.WriteString("@R 2\n")
	extras := make([]int, 0, sp.Extra)
	for g := 0; g < sp.Groups; g++ {
		fromS := sp.NearMiss
		if isMatch[g] {
			fromS = sp.DivisorSize
			matching = append(matching, g)
		}
		off := rng.Intn(sp.DivisorSize)
		for i := 0; i < fromS; i++ {
			writeRow(buf, "R", g, divisorBase+(off+i)%sp.DivisorSize)
		}
		extras = distinctInts(rng, extras[:0], sp.Extra, sp.Domain)
		for _, b := range extras {
			writeRow(buf, "R", g, b)
		}
		tuples += fromS + sp.Extra
	}
	buf.WriteString("@S 1\n")
	for i := 0; i < sp.DivisorSize; i++ {
		writeRow(buf, "S", divisorBase+i)
	}
	return tuples + sp.DivisorSize, matching
}

func (sp divisionSpec) generate(seed int64) dataset {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	tuples, matching := sp.writeTo(&buf, rng)
	return dataset{
		file:     buf.Bytes(),
		tuples:   tuples,
		sizes:    map[string]int{"R": tuples - sp.DivisorSize, "S": sp.DivisorSize, "result": len(matching)},
		expected: map[string]string{"stdout": unaryText(matching)},
	}
}

// setJoinSpec describes two set-valued relations P(K,E) and Q(K,E).
// Set sizes follow a Zipf law (P(size = k) ∝ k^-1.5, k ≤ MaxSize)
// whose multiset is fixed by the spec and only shuffled by the seed.
type setJoinSpec struct {
	PGroups, QGroups int
	MaxSize          int
	Domain           int // element domain
	Contained        int // Q groups built as a subset of some P group
}

func (sp setJoinSpec) scaled(f float64) setJoinSpec {
	sp.PGroups = scaleInt(sp.PGroups, f)
	sp.QGroups = scaleInt(sp.QGroups, f)
	sp.Contained = scaleInt(sp.Contained, f)
	return sp
}

// zipfSizes returns n set sizes whose multiset is the k^-1.5 law's
// quantiles, in seed-shuffled order.
func zipfSizes(rng *rand.Rand, n, maxSize int) []int {
	cdf := make([]float64, maxSize)
	total := 0.0
	for k := 1; k <= maxSize; k++ {
		total += math.Pow(float64(k), -1.5)
		cdf[k-1] = total
	}
	sizes := make([]int, n)
	k := 0
	for j := range sizes {
		for cdf[k] < (float64(j)+0.5)/float64(n)*total {
			k++
		}
		sizes[j] = k + 1
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// writeTo appends P and Q to buf and returns the tuple count and the
// generated sets, indexed by group key.
func (sp setJoinSpec) writeTo(buf *bytes.Buffer, rng *rand.Rand) (tuples int, p, q [][]int) {
	p = make([][]int, sp.PGroups)
	buf.WriteString("@P 2\n")
	for g, size := range zipfSizes(rng, sp.PGroups, sp.MaxSize) {
		p[g] = distinctInts(rng, nil, size, sp.Domain)
		for _, e := range p[g] {
			writeRow(buf, "P", g, e)
		}
		tuples += size
	}
	contained := make([]bool, sp.QGroups)
	for _, g := range rng.Perm(sp.QGroups)[:sp.Contained] {
		contained[g] = true
	}
	q = make([][]int, sp.QGroups)
	buf.WriteString("@Q 2\n")
	for g, size := range zipfSizes(rng, sp.QGroups, sp.MaxSize) {
		if contained[g] {
			// A size-element subset of a random P group that has room
			// for one; the largest P group always has.
			var roomy []int
			for i := range p {
				if len(p[i]) >= size {
					roomy = append(roomy, i)
				}
			}
			src := p[roomy[rng.Intn(len(roomy))]]
			for _, i := range rng.Perm(len(src))[:size] {
				q[g] = append(q[g], src[i])
			}
		} else {
			q[g] = distinctInts(rng, nil, size, sp.Domain)
		}
		for _, e := range q[g] {
			writeRow(buf, "Q", g, e)
		}
		tuples += size
	}
	return tuples, p, q
}

// setJoinText brute-forces both set joins with one bitset per group:
// the pairs (p, q) with P_p ⊇ Q_q, and those with P_p = Q_q, each as
// canonical text in (p, q) order.
func setJoinText(p, q [][]int, domain int) (containment, equality string, nContain, nEqual int) {
	words := (domain + 63) / 64
	bits := func(sets [][]int) []uint64 {
		out := make([]uint64, len(sets)*words)
		for g, set := range sets {
			for _, e := range set {
				out[g*words+e/64] |= 1 << (e % 64)
			}
		}
		return out
	}
	pb, qb := bits(p), bits(q)
	var cb, eb bytes.Buffer
	for i := range p {
		ps := pb[i*words : (i+1)*words]
		for j := range q {
			qs := qb[j*words : (j+1)*words]
			contains, equal := true, true
			for w := range ps {
				if qs[w]&^ps[w] != 0 {
					contains = false
					break
				}
				if qs[w] != ps[w] {
					equal = false
				}
			}
			if !contains {
				continue
			}
			fmt.Fprintf(&cb, "(%d, %d)\n", i, j)
			nContain++
			if equal {
				fmt.Fprintf(&eb, "(%d, %d)\n", i, j)
				nEqual++
			}
		}
	}
	return cb.String(), eb.String(), nContain, nEqual
}

// directSpec is the direct-sharded input: a division instance and a
// set-join instance in one database.
type directSpec struct {
	Division divisionSpec
	SetJoin  setJoinSpec
}

func (sp directSpec) scaled(f float64) directSpec {
	return directSpec{sp.Division.scaled(f), sp.SetJoin.scaled(f)}
}

func (sp directSpec) generate(seed int64) dataset {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	divTuples, matching := sp.Division.writeTo(&buf, rng)
	sjTuples, p, q := sp.SetJoin.writeTo(&buf, rng)
	containment, equality, nContain, nEqual := setJoinText(p, q, sp.SetJoin.Domain)
	return dataset{
		file:   buf.Bytes(),
		tuples: divTuples + sjTuples,
		sizes: map[string]int{
			"R": divTuples - sp.Division.DivisorSize, "S": sp.Division.DivisorSize, "PQ": sjTuples,
			"divide": len(matching), "containment": nContain, "equality": nEqual,
		},
		expected: map[string]string{
			"divide": unaryText(matching), "containment": containment, "equality": equality,
		},
	}
}

// beerSpec describes a string-valued instance of the paper's
// beer-drinker schema: Likes(drinker, beer), Serves(bar, beer),
// Visits(drinker, bar), each with exactly Bars×PerBar tuples. Sad bars
// serve only beers nobody likes; every other bar serves at least one
// beer that occurs in Likes. The lin-semijoin query asks for the
// drinkers who visit a sad bar.
type beerSpec struct {
	Drinkers, Bars, Beers int
	PerBar                int // beers per bar; each relation has Bars×PerBar tuples
	SadBars               int
	LikedBeers            int // beers 0..LikedBeers-1 all occur in Likes; the rest never do
}

func (sp beerSpec) scaled(f float64) beerSpec {
	return beerSpec{
		Drinkers: scaleInt(sp.Drinkers, f), Bars: scaleInt(sp.Bars, f), Beers: scaleInt(sp.Beers, f),
		PerBar: sp.PerBar, SadBars: scaleInt(sp.SadBars, f), LikedBeers: scaleInt(sp.LikedBeers, f),
	}
}

func (sp beerSpec) generate(seed int64) dataset {
	tuples := sp.Bars * sp.PerBar
	if tuples < sp.LikedBeers || sp.LikedBeers < sp.PerBar || sp.Beers-sp.LikedBeers < sp.PerBar {
		panic(fmt.Sprintf("bench: beer spec %+v cannot keep its sad-bar construction", sp))
	}
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	used := map[string]struct{}{}
	row := func(rel, a, b string) {
		buf.WriteString(rel)
		buf.WriteByte(' ')
		buf.WriteString(a)
		buf.WriteByte(',')
		buf.WriteString(b)
		buf.WriteByte('\n')
		used[a], used[b] = struct{}{}, struct{}{}
	}
	drinker := func(i int) string { return fmt.Sprintf("drinker-%06d", i) }
	bar := func(i int) string { return fmt.Sprintf("bar-%06d", i) }
	beer := func(i int) string { return fmt.Sprintf("beer-%06d", i) }
	seen := map[[2]int]struct{}{}
	fresh := func(a, b int) bool {
		if _, dup := seen[[2]int{a, b}]; dup {
			return false
		}
		seen[[2]int{a, b}] = struct{}{}
		return true
	}

	buf.WriteString("@Likes 2\n")
	for i := 0; i < tuples; i++ {
		b := i % sp.LikedBeers
		d := rng.Intn(sp.Drinkers)
		for !fresh(d, b) {
			d = rng.Intn(sp.Drinkers)
		}
		row("Likes", drinker(d), beer(b))
	}

	sad := make([]bool, sp.Bars)
	for _, b := range rng.Perm(sp.Bars)[:sp.SadBars] {
		sad[b] = true
	}
	unliked := sp.Beers - sp.LikedBeers
	buf.WriteString("@Serves 2\n")
	var served []int
	for b := 0; b < sp.Bars; b++ {
		if sad[b] {
			served = distinctInts(rng, served[:0], sp.PerBar, unliked)
			for i := range served {
				served[i] += sp.LikedBeers
			}
		} else {
			served = append(served[:0], rng.Intn(sp.LikedBeers))
			served = distinctInts(rng, served, sp.PerBar-1, sp.Beers)
		}
		for _, be := range served {
			row("Serves", bar(b), beer(be))
		}
	}

	clear(seen)
	visitsSad := map[int]struct{}{}
	buf.WriteString("@Visits 2\n")
	for i := 0; i < tuples; i++ {
		d, b := rng.Intn(sp.Drinkers), rng.Intn(sp.Bars)
		for !fresh(d, b) {
			d, b = rng.Intn(sp.Drinkers), rng.Intn(sp.Bars)
		}
		row("Visits", drinker(d), bar(b))
		if sad[b] {
			visitsSad[d] = struct{}{}
		}
	}

	result := make([]string, 0, len(visitsSad))
	for d := range visitsSad {
		result = append(result, drinker(d))
	}
	sort.Strings(result)
	var exp bytes.Buffer
	for _, s := range result {
		exp.WriteString("(" + s + ")\n")
	}
	return dataset{
		file:   buf.Bytes(),
		tuples: 3 * tuples,
		sizes: map[string]int{
			"Likes": tuples, "Serves": tuples, "Visits": tuples,
			"distinct_strings": len(used), "result": len(result),
		},
		expected: map[string]string{"stdout": exp.String()},
	}
}

// distinctInts appends n draws from [0, domain) to dst, each distinct
// from everything already in it. n is far below domain everywhere it
// is used, so rejection is cheap.
func distinctInts(rng *rand.Rand, dst []int, n, domain int) []int {
	want := len(dst) + n
draw:
	for len(dst) < want {
		v := rng.Intn(domain)
		for _, u := range dst {
			if u == v {
				continue draw
			}
		}
		dst = append(dst, v)
	}
	return dst
}

func writeRow(buf *bytes.Buffer, rel string, vals ...int) {
	buf.WriteString(rel)
	sep := byte(' ')
	for _, v := range vals {
		buf.WriteByte(sep)
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(v), 10))
		sep = ','
	}
	buf.WriteByte('\n')
}

// unaryText renders ascending ints as a unary relation's canonical text.
func unaryText(vals []int) string {
	var b bytes.Buffer
	for _, v := range vals {
		fmt.Fprintf(&b, "(%d)\n", v)
	}
	return b.String()
}

func scaleInt(n int, f float64) int {
	if s := int(float64(n) * f); s >= 1 {
		return s
	}
	return 1
}
