package rel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Int(7))
	b := in.Intern(Str("7"))
	c := in.Intern(Int(7))
	if a != c {
		t.Errorf("re-interning changed ID: %d vs %d", a, c)
	}
	if a == b {
		t.Error("Int(7) and Str(\"7\") must intern to different IDs")
	}
	if a != 0 || b != 1 {
		t.Errorf("IDs not dense in first-intern order: a=%d b=%d", a, b)
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if !in.Value(a).Equal(Int(7)) || !in.Value(b).Equal(Str("7")) {
		t.Error("Value does not invert Intern")
	}
	if _, ok := in.ID(Int(99)); ok {
		t.Error("ID of unseen value reported ok")
	}
	if id, ok := in.ID(Str("7")); !ok || id != b {
		t.Error("ID lookup of interned string broken")
	}
}

func TestInternerManyValues(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 1000; i++ {
		if got := in.Intern(Int(int64(i))); got != uint32(i) {
			t.Fatalf("Intern(%d) = %d", i, got)
		}
	}
	for i := 999; i >= 0; i-- {
		if id, ok := in.ID(Int(int64(i))); !ok || id != uint32(i) {
			t.Fatalf("ID(%d) = %d, %v", i, id, ok)
		}
		if v := in.Value(uint32(i)); v != Int(int64(i)) {
			t.Fatalf("Value(%d) = %v after growth", i, v)
		}
	}
	// The index is kept at most half full.
	if got := len(in.slots); got != 2048 {
		t.Errorf("dictionary of 1000 values has %d slots, want 2048", got)
	}
}

// dictOrder returns a dictionary's values in ID order.
func dictOrder(in *Interner) Tuple {
	vs := make(Tuple, in.Len())
	for id := range vs {
		vs[id] = in.Value(uint32(id))
	}
	return vs
}

// TestInternerValuesNeverMove: a stored value stays where it is once
// its page is full, a small dictionary costs no full page, and a large
// one allocates its values once — only the index still doubles.
func TestInternerValuesNeverMove(t *testing.T) {
	in := NewInterner()
	for i := 0; i < pageSize; i++ {
		in.Intern(Int(int64(i)))
	}
	first := &in.pages[0][0]
	for i := pageSize; i <= 3*pageSize; i++ {
		in.Intern(Int(int64(i)))
	}
	if len(in.pages) != 4 || &in.pages[0][0] != first || in.Value(0) != Int(0) {
		t.Errorf("value 0 moved as the dictionary grew to %d pages", len(in.pages))
	}

	var one *Interner
	if got := allocatedBytes(func() { one = NewInterner(); one.Intern(Int(1)) }); got > 512 {
		t.Errorf("a dictionary of one value allocated %d B, want at most 512", got)
	}

	const n = 100000
	var big *Interner
	got := allocatedBytes(func() {
		big = NewInterner()
		for i := 0; i < n; i++ {
			big.Intern(Int(int64(i)))
		}
	})
	// A value is one word in its page and one bit in the kind bitmap.
	const wordBytes = int(unsafe.Sizeof(uint64(0)))
	kept := wordBytes * cap(big.kinds)
	for _, p := range big.pages {
		kept += cap(p) * wordBytes
	}
	// A doubling index allocates just under twice its final table, and
	// the first page's doubling under a page. The bitmap and the page
	// list grow by append, which past 256 elements adds a quarter at a
	// time: each allocates under five times its final size.
	list := int(unsafe.Sizeof(big.pages[0])) * cap(big.pages)
	limit := kept + 2*8*len(big.slots) + pageSize*wordBytes + 5*(wordBytes*cap(big.kinds)+list)
	t.Logf("%d values: %d B allocated, %d B of pages and bitmap kept, %d B of slots", n, got, kept, 8*len(big.slots))
	if got > uint64(limit) {
		t.Errorf("%d values allocated %d B, want at most %d: the values were copied as they grew", n, got, limit)
	}
}

// TestInternerReadsAllocateNothing: Value rebuilds a value from its
// word, an integer from its bits and a string as a substring of its
// chunk, and ID compares words and chunk bytes in place. Neither
// allocates, for strings kept through Intern, through the loader, and
// in chunks of their own.
func TestInternerReadsAllocateNothing(t *testing.T) {
	in := NewInterner()
	vals := []Value{Int(-7), Str("beer"), Str(""), Str(strings.Repeat("x", maxChunk/4+1)), Str("1"), Int(1)}
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		if v.IsInt() || i%2 == 0 {
			ids[i] = in.Intern(v)
		} else {
			ids[i] = in.internText([]byte(v.AsString()))
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		for i, id := range ids {
			if in.Value(id) != vals[i] {
				t.Fatalf("Value(%d) = %#v, want %#v", id, in.Value(id), vals[i])
			}
		}
	}); got != 0 {
		t.Errorf("Value allocated %.1f times per sweep, want none", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		for i, v := range vals {
			if id, ok := in.ID(v); !ok || id != ids[i] {
				t.Fatalf("ID(%#v) = %d, %v; want %d", v, id, ok, ids[i])
			}
		}
	}); got != 0 {
		t.Errorf("ID allocated %.1f times per sweep, want none", got)
	}
}

// checkedDict drives an Interner and a plain map-and-slice model of it
// through the same operations and fails on the first difference.
type checkedDict struct {
	t    testing.TB
	in   *Interner
	ids  map[Value]uint32
	vals []Value
}

func newCheckedDict(t testing.TB) *checkedDict {
	return &checkedDict{t: t, in: NewInterner(), ids: map[Value]uint32{}}
}

// interned checks the ID an interning call returned for v: the model's,
// which is the next free one when v is new.
func (c *checkedDict) interned(got uint32, v Value) {
	c.t.Helper()
	want, seen := c.ids[v]
	if !seen {
		want = uint32(len(c.vals))
		c.ids[v] = want
		c.vals = append(c.vals, v)
	}
	if got != want {
		c.t.Fatalf("%#v interned as %d, model says %d (seen before: %v)", v, got, want, seen)
	}
	if back := c.in.Value(got); back != v {
		c.t.Fatalf("Value(%d) = %#v right after interning %#v", got, back, v)
	}
	if c.in.Len() != len(c.vals) {
		c.t.Fatalf("Len = %d, model holds %d", c.in.Len(), len(c.vals))
	}
}

func (c *checkedDict) intern(v Value) { c.t.Helper(); c.interned(c.in.Intern(v), v) }

// text interns a field as the loader does, then scribbles over the
// buffer it passed: the dictionary must have kept its own copy.
func (c *checkedDict) text(field string) {
	c.t.Helper()
	b := []byte(field)
	id := c.in.internText(b)
	for i := range b {
		b[i] = '#'
	}
	c.interned(id, ParseValue(field))
}

func (c *checkedDict) id(v Value) {
	c.t.Helper()
	got, ok := c.in.ID(v)
	want, seen := c.ids[v]
	if ok != seen || (ok && got != want) {
		c.t.Fatalf("ID(%#v) = %d, %v; model says %d, %v", v, got, ok, want, seen)
	}
}

// sweep checks the whole dictionary against the model, and the shape of
// the index.
func (c *checkedDict) sweep() {
	c.t.Helper()
	if c.in.Len() != len(c.vals) {
		c.t.Fatalf("Len = %d, model holds %d", c.in.Len(), len(c.vals))
	}
	for id, v := range c.vals {
		if got := c.in.Value(uint32(id)); got != v {
			c.t.Fatalf("Value(%d) = %#v, model says %#v", id, got, v)
		}
		if got, ok := c.in.ID(v); !ok || got != uint32(id) {
			c.t.Fatalf("ID(%#v) = %d, %v; want %d", v, got, ok, id)
		}
	}
	if n := len(c.in.slots); n&(n-1) != 0 || n < 2*len(c.vals) {
		c.t.Fatalf("%d slots for %d values: want a power of two at least twice the values", n, len(c.vals))
	}
	used := 0
	for _, w := range c.in.slots {
		if w != 0 {
			used++
		}
	}
	if used != len(c.vals) {
		c.t.Fatalf("%d slots in use for %d values", used, len(c.vals))
	}
}

func (c *checkedDict) clone() *checkedDict {
	return &checkedDict{t: c.t, in: c.in.Clone(), ids: maps.Clone(c.ids), vals: slices.Clone(c.vals)}
}

// lookAlikes returns the values and fields that must stay apart or
// fall together around the integer n: Int(n) and Str of its digits are
// distinct; "007" and "+7" read as the integer when they arrive as text.
func lookAlikes(n int64) (vals []Value, fields []string) {
	d := strconv.FormatInt(n, 10)
	return []Value{Int(n), Str(d), Str("00" + d), Str("+" + d), Str(""), Str("v" + d)},
		[]string{d, "00" + d, "+" + d, "-" + d, "", "v" + d, d + "x"}
}

// randomOp applies one random operation over the domain [0, domain).
func (c *checkedDict) randomOp(rng *rand.Rand, domain int64) {
	c.t.Helper()
	vals, fields := lookAlikes(rng.Int63n(domain))
	switch rng.Intn(3) {
	case 0:
		c.intern(vals[rng.Intn(len(vals))])
	case 1:
		c.text(fields[rng.Intn(len(fields))])
	case 2:
		c.id(vals[rng.Intn(len(vals))])
	}
}

// sharingLastBucket returns n integers and n/4 strings whose hashes all
// fall in the last bucket of a table of the given size — and so of
// every smaller table.
func sharingLastBucket(n, tableSize int) (vals []Value) {
	mask := uint64(tableSize - 1)
	for i := int64(0); len(vals) < n; i++ {
		if v := Int(i); hashOf(v)>>32&mask == mask {
			vals = append(vals, v)
		}
	}
	buf := []byte("s")
	for i := int64(0); len(vals) < n+n/4; i++ {
		buf = strconv.AppendInt(buf[:1], i, 10)
		if maphash.Bytes(hashSeed, buf)>>32&mask == mask {
			vals = append(vals, Str(string(buf)))
		}
	}
	return vals
}

// TestInternerAgainstModel runs random interleavings of Intern,
// internText and ID against the model, then bases a dictionary on it at
// that point and keeps interning into both.
func TestInternerAgainstModel(t *testing.T) {
	boundary := map[int]bool{0: true, 1: true, 7: true, 8: true, 9: true}
	for k := 4; k <= 17; k++ {
		boundary[1<<k-1], boundary[1<<k], boundary[1<<k+1] = true, true, true
	}
	for _, tc := range []struct {
		name string
		run  func(c *checkedDict, rng *rand.Rand)
	}{
		{"growth boundaries", func(c *checkedDict, rng *rand.Rand) {
			// Fresh values nearly every step; a sweep at every size next
			// to a doubling of the first page or the index, or to a new page.
			swept := -1
			for c.in.Len() <= 1<<17+1 {
				if n := c.in.Len(); boundary[n] && n != swept {
					c.sweep()
					swept = n
				}
				c.randomOp(rng, 1<<40)
			}
		}},
		{"look-alikes", func(c *checkedDict, rng *rand.Rand) {
			// A small domain: mostly hits, ints against their string twins.
			for i := 0; i < 20000; i++ {
				c.randomOp(rng, 50)
			}
		}},
		{"one bucket", func(c *checkedDict, rng *rand.Rand) {
			// 1500 values that share the last bucket of the table they
			// end up in: every probe run wraps around, the last one is
			// over a thousand slots long, and growth re-places them all.
			vals := sharingLastBucket(1200, 4096)
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			for _, v := range vals {
				if v.IsInt() || rng.Intn(2) == 0 {
					c.intern(v)
				} else {
					c.text(v.AsString())
				}
				c.id(vals[rng.Intn(len(vals))])
			}
			if len(c.in.slots) != 4096 {
				t.Fatalf("%d slots, the values were picked for 4096", len(c.in.slots))
			}
		}},
		{"strings around the chunk sizes", func(c *checkedDict, rng *rand.Rand) {
			// Long strings between short ones, so chunk tails are
			// abandoned part full; lengths on both sides of every limit.
			for round := 0; round < 3; round++ {
				for _, n := range []int{0, 1, 100, minChunk - 1, minChunk, minChunk + 1, 1000, maxChunk/4 - 1, maxChunk / 4, maxChunk/4 + 1, maxChunk, 70000} {
					c.text(strings.Repeat(string(rune('a'+round)), n))
					for i := 0; i < 40; i++ {
						c.text(fmt.Sprintf("short-%d-%d-%d", round, n, i))
					}
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(24))
			c := newCheckedDict(t)
			tc.run(c, rng)
			c.sweep()

			b := c.based()
			prefix := slices.Clone(c.vals)
			for i := 0; i < 2000; i++ {
				c.randomOp(rng, 1<<50)
				b.randomOp(rng, 1<<50)
			}
			c.sweep()
			b.sweep()
			for id, v := range c.vals {
				got, ok := b.in.ID(v)
				if inPrefix := id < len(prefix); inPrefix && (!ok || got != uint32(id)) || !inPrefix && ok && got < uint32(len(prefix)) {
					t.Fatalf("based ID(%#v) = %d, %v; the value has ID %d in the base and the prefix ends at %d", v, got, ok, id, len(prefix))
				}
			}
		})
	}
}

// checkedBased drives a dictionary based on a checked dictionary as it
// stood at basing, against the model: the base's model up to that
// length, and a map-and-slice tail. The base may keep growing after
// basing; what it gains is outside the based dictionary.
type checkedBased struct {
	t    testing.TB
	in   *Interner
	base *checkedDict
	n    int // the base's length at basing
	tail map[Value]uint32
	vals []Value
}

func (c *checkedDict) based() *checkedBased {
	return &checkedBased{t: c.t, in: newInternerOver(c.in), base: c, n: c.in.Len(), tail: map[Value]uint32{}}
}

// clone is Interner.Clone of the based dictionary, and rebase a
// dictionary based on it, which sits on its base and copies its tail:
// the model of both is a copy of this one's.
func (c *checkedBased) clone() *checkedBased  { return c.copyTo(c.in.Clone()) }
func (c *checkedBased) rebase() *checkedBased { return c.copyTo(newInternerOver(c.in)) }

func (c *checkedBased) copyTo(in *Interner) *checkedBased {
	return &checkedBased{t: c.t, in: in, base: c.base, n: c.n, tail: maps.Clone(c.tail), vals: slices.Clone(c.vals)}
}

// want returns the ID the model gives v, and whether it holds v: its
// base ID when the base held v at basing, else its tail ID.
func (c *checkedBased) want(v Value) (uint32, bool) {
	if id, ok := c.base.ids[v]; ok && int(id) < c.n {
		return id, true
	}
	id, ok := c.tail[v]
	return uint32(c.n) + id, ok
}

// interned checks the ID an interning call returned for v: a value of
// the base as it stood gets its base ID, any other a tail ID from the
// basing length on, first come first numbered; and the base's prefix
// reads as it did.
func (c *checkedBased) interned(got uint32, v Value) {
	c.t.Helper()
	want, ok := c.want(v)
	if !ok {
		want = uint32(c.n + len(c.vals))
		c.tail[v] = uint32(len(c.vals))
		c.vals = append(c.vals, v)
	}
	if got != want {
		c.t.Fatalf("dictionary based on %d values: %#v interned as %d, model says %d", c.n, v, got, want)
	}
	if back := c.in.Value(got); back != v {
		c.t.Fatalf("based Value(%d) = %#v right after interning %#v", got, back, v)
	}
	if c.in.Len() != c.n+len(c.vals) {
		c.t.Fatalf("based Len = %d, model holds %d + %d", c.in.Len(), c.n, len(c.vals))
	}
}

func (c *checkedBased) intern(v Value) { c.t.Helper(); c.interned(c.in.Intern(v), v) }

func (c *checkedBased) id(v Value) {
	c.t.Helper()
	got, ok := c.in.ID(v)
	want, seen := c.want(v)
	if ok != seen || (ok && got != want) {
		c.t.Fatalf("based ID(%#v) = %d, %v; model says %d, %v", v, got, ok, want, seen)
	}
}

// randomOp applies one random operation over the domain [0, domain).
func (c *checkedBased) randomOp(rng *rand.Rand, domain int64) {
	c.t.Helper()
	vals, fields := lookAlikes(rng.Int63n(domain))
	switch rng.Intn(3) {
	case 0:
		c.intern(vals[rng.Intn(len(vals))])
	case 1:
		c.intern(ParseValue(fields[rng.Intn(len(fields))]))
	case 2:
		c.id(vals[rng.Intn(len(vals))])
	}
}

// sweep checks every base and tail value against the model.
func (c *checkedBased) sweep() {
	c.t.Helper()
	if c.in.Len() != c.n+len(c.vals) {
		c.t.Fatalf("based Len = %d, model holds %d + %d", c.in.Len(), c.n, len(c.vals))
	}
	for id, v := range c.base.vals[:c.n] {
		if got := c.in.Value(uint32(id)); got != v {
			c.t.Fatalf("based Value(%d) = %#v, base model says %#v", id, got, v)
		}
		c.id(v)
	}
	for i, v := range c.vals {
		if got := c.in.Value(uint32(c.n + i)); got != v {
			c.t.Fatalf("based Value(%d) = %#v, tail model says %#v", c.n+i, got, v)
		}
		c.id(v)
	}
	for _, v := range c.base.vals[c.n:] {
		c.id(v) // what the base gained after basing: in the tail or absent
	}
	used := 0
	for _, w := range c.in.slots {
		if w != 0 {
			used++
		}
	}
	if used != len(c.vals) {
		c.t.Fatalf("%d slots in use for a tail of %d values: the index holds the tail only", used, len(c.vals))
	}
}

// FuzzInterner reads its input as a stream of operations — a byte that
// picks the operation and the dictionary it goes to, then an operand up
// to the next zero byte — and runs them against the model. The clone
// operation adds a dictionary, and every later operation goes to one of
// those made so far, so clones and their sources keep growing apart.
// A byte with bit 3 set is a based-dictionary operation instead: base a
// dictionary on one of the first kind, intern into one made so far,
// look a value up in it, clone it, or base a dictionary on it, while
// the dictionaries below them keep growing.
func FuzzInterner(f *testing.F) {
	sizes := []int{pageSize - 1, pageSize, pageSize + 1, 2*pageSize + 1}
	for _, n := range sizes {
		f.Add(pageBoundarySeed(n))
	}
	for _, n := range sizes {
		f.Add(basedBoundarySeed(n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dicts := []*checkedDict{newCheckedDict(t)}
		var based []*checkedBased
		for len(data) > 0 {
			op := data[0]
			var arg []byte
			arg, data, _ = bytes.Cut(data[1:], []byte{0})
			c := dicts[int(op>>4)%len(dicts)]
			if op&8 != 0 {
				if op&7 == 0 {
					if len(based) < 6 {
						based = append(based, c.based())
					}
					continue
				}
				if len(based) == 0 {
					continue
				}
				b := based[int(op>>4)%len(based)]
				switch op & 7 {
				case 1:
					b.intern(ParseValue(string(arg)))
				case 2:
					b.intern(Str(string(arg)))
				case 3:
					var n [8]byte
					copy(n[:], arg)
					b.intern(Int(int64(binary.LittleEndian.Uint64(n[:]))))
				case 4:
					if len(based) < 6 {
						based = append(based, b.clone())
					}
				case 5:
					if len(based) < 6 {
						based = append(based, b.rebase())
					}
				case 6, 7:
					b.id(ParseValue(string(arg)))
					b.id(Str(string(arg)))
				}
				continue
			}
			switch op % 5 {
			case 0:
				var n [8]byte
				copy(n[:], arg)
				c.intern(Int(int64(binary.LittleEndian.Uint64(n[:]))))
			case 1:
				c.intern(Str(string(arg)))
			case 2:
				c.text(string(arg))
			case 3:
				c.id(ParseValue(string(arg)))
				c.id(Str(string(arg)))
			case 4:
				if len(dicts) < 4 {
					dicts = append(dicts, c.clone())
				}
			}
		}
		for _, c := range dicts {
			c.sweep()
		}
		for _, b := range based {
			b.sweep()
		}
	})
}

// pageBoundarySeed is a FuzzInterner input that interns n distinct
// integers, clones the dictionary, and then interns a page and one
// more into each side, the clone first.
func pageBoundarySeed(n int) []byte {
	var ops []byte
	intern := func(op byte, i int) { // operands avoid the zero separator
		ops = append(ops, op, byte(i%255+1), byte(i/255+1), 0)
	}
	for i := 0; i < n; i++ {
		intern(0x00, i) // dictionary 0
	}
	ops = append(ops, 0x04, 0) // clone dictionary 0 as dictionary 1
	for i := n; i <= n+pageSize; i++ {
		intern(0x14, i)            // dictionary 1
		intern(0x00, i+pageSize+1) // dictionary 0
	}
	return ops
}

// basedBoundarySeed is a FuzzInterner input that interns n distinct
// integers, bases a dictionary on them, interns a string and an
// integer into the based one — its first tail value, past a part-full
// or a full last page — then clones and re-bases it, grows the base by
// values the based dictionaries then intern too, and interns into each.
func basedBoundarySeed(n int) []byte {
	var ops []byte
	op := func(code byte, arg ...byte) { ops = append(append(append(ops, code), arg...), 0) }
	for i := 0; i < n; i++ {
		op(0x00, byte(i%255+1), byte(i/255+1)) // dictionary 0
	}
	op(0x08)                // base dictionary 0 as based 0
	op(0x0a, 's')           // a string into based 0
	op(0x0b, 0xff, 0xff, 9) // an integer no base holds
	op(0x0c)                // clone based 0 as based 1
	op(0x0d)                // re-base on based 0 as based 2
	for _, late := range []byte{'a', 'b'} {
		op(0x01, late) // the base grows
		for _, b := range []byte{0x0a, 0x1a, 0x2a} {
			op(b, late)
		}
	}
	op(0x19, '7')  // the integer 7 into based 1
	op(0x2f, 's')  // lookups in based 2
	op(0x09, 'b')  // a tail value into based 0 again
	op(0x2b, 1, 1) // an integer the base held at basing, into based 2
	return ops
}

// The relation index must key on value identity, not on hash buckets
// alone: tuples whose IDs collide in the bucket hash must still be
// distinguished.
func TestRelationDedupMixedKinds(t *testing.T) {
	r := NewRelation(2)
	tuples := []Tuple{
		T(Int(1), Str("1")),
		T(Str("1"), Int(1)),
		T(Int(1), Int(1)),
		T(Str("1"), Str("1")),
	}
	for _, tp := range tuples {
		if !r.Add(tp) {
			t.Fatalf("tuple %v wrongly reported duplicate", tp)
		}
	}
	for _, tp := range tuples {
		if r.Add(tp) {
			t.Fatalf("tuple %v wrongly reported new on second Add", tp)
		}
		if !r.Contains(tp) {
			t.Fatalf("Contains(%v) = false", tp)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
}

func TestRelationContainsUnseenValue(t *testing.T) {
	r := FromRows(2, []int64{1, 2})
	if r.Contains(Ints(1, 3)) {
		t.Error("Contains with a never-seen value must be false")
	}
}

func TestRelationInternerExposed(t *testing.T) {
	r := FromRows(2, []int64{10, 20}, []int64{10, 30})
	in := r.Interner()
	if in.Len() != 3 {
		t.Fatalf("interner holds %d values, want 3", in.Len())
	}
	var got []int64
	for id := 0; id < in.Len(); id++ {
		got = append(got, in.Value(uint32(id)).AsInt())
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		// first-occurrence order here is 10, 20, 30 — already sorted
		t.Errorf("IDs not in first-occurrence order: %v", got)
	}
}

// Tuples returns a defensive view: reordering or truncating the
// returned slice must not corrupt the relation's index.
func TestTuplesDefensiveView(t *testing.T) {
	r := FromRows(2, []int64{1, 2}, []int64{3, 4}, []int64{5, 6})
	ts := r.Tuples()
	ts[0], ts[2] = ts[2], ts[0]
	ts = ts[:1]
	_ = ts
	if !r.Contains(Ints(1, 2)) || !r.Contains(Ints(5, 6)) || r.Len() != 3 {
		t.Error("mutating the slice returned by Tuples corrupted the relation")
	}
	again := r.Tuples()
	if !again[0].Equal(Ints(1, 2)) {
		t.Errorf("insertion order lost: %v", again)
	}
}

// fullPanic runs f and returns the capacityError it panics with, or
// fails the test when it returns or panics with anything else.
func fullPanic(t *testing.T, f func()) (got capacityError) {
	t.Helper()
	defer func() {
		p := recover()
		got, _ = p.(capacityError)
		if got == "" || !strings.HasPrefix(string(got), "rel: ") {
			t.Fatalf("panic %v (%T), want a rel: capacityError", p, p)
		}
	}()
	f()
	return ""
}

// TestInternerLimit: a dictionary at its value limit still finds what
// it holds and refuses the next new value, from Intern and from the
// text loader's internText alike. The limit is lowered to 3 values.
func TestInternerLimit(t *testing.T) {
	defer func(was int) { maxValues = was }(maxValues)
	maxValues = 3
	in := NewInterner()
	for i := range int64(3) {
		in.Intern(Int(i))
	}
	if id := in.Intern(Int(2)); id != 2 {
		t.Fatalf("Intern of a held value at the limit: id %d, want 2", id)
	}
	if id := in.internText([]byte("1")); id != 1 {
		t.Fatalf("internText of a held value at the limit: id %d, want 1", id)
	}
	if got := fullPanic(t, func() { in.Intern(Str("x")) }); got != errDictionaryFull {
		t.Errorf("Intern past the limit: %q", got)
	}
	if got := fullPanic(t, func() { in.internText([]byte("y")) }); got != errDictionaryFull {
		t.Errorf("internText past the limit: %q", got)
	}
	if in.Len() != 3 {
		t.Errorf("a refused value changed Len to %d", in.Len())
	}
}

// TestBasedDictPrefix pins what a dictionary based on another reads:
// the base's values as they stood at basing, under their IDs, and none
// the base gains later; a value of its own gets the next tail ID, even
// one the base gained after basing, and the base never sees it.
func TestBasedDictPrefix(t *testing.T) {
	in := NewInterner()
	a := in.Intern(Int(1))
	b := in.Intern(Str("x"))
	d := newInternerOver(in)
	if d.Len() != 2 {
		t.Fatalf("based Len %d", d.Len())
	}
	late := in.Intern(Int(99)) // after basing: outside the prefix
	if d.Len() != 2 {
		t.Fatalf("the basing point moved")
	}
	if id, ok := d.ID(Int(1)); !ok || id != a {
		t.Fatalf("based ID(1) = %d, %v", id, ok)
	}
	if d.Value(b).String() != "x" {
		t.Fatalf("based Value(%d) = %s", b, d.Value(b))
	}
	if _, ok := d.ID(Int(99)); ok {
		t.Fatalf("a value the base gained after basing is visible")
	}
	if id := d.Intern(Str("y")); id != 2 || d.Value(id) != Str("y") {
		t.Fatalf("first tail value: ID %d, value %v", id, d.Value(id))
	}
	if id := d.Intern(Int(99)); id != 3 || id == late {
		t.Fatalf("the base's late value interned as %d in the tail, want 3", id)
	}
	if in.Len() != 3 || in.Value(late) != Int(99) {
		t.Fatalf("the base changed: %d values", in.Len())
	}
	if _, ok := in.ID(Str("y")); ok {
		t.Fatal("a tail value reached the base")
	}
}

// TestBasedDictSharesBase: basing copies none of the base's values — a
// dictionary based on a large one allocates a page list, not its pages
// — its first tail value copies the bitmap and the part-full last page
// and leaves the base's untouched, and its clone shares the base's full
// pages.
func TestBasedDictSharesBase(t *testing.T) {
	base := NewInterner()
	for i := range int64(10*pageSize + 5) {
		base.Intern(Int(i))
	}
	base.Intern(Str("s"))
	var d *Interner
	if got := allocatedBytes(func() { d = newInternerOver(base) }); got > 1024 {
		t.Errorf("basing on %d values allocated %d B, want at most 1024", base.Len(), got)
	}
	kinds, last := slices.Clone(base.kinds), slices.Clone(base.pages[10])
	id := d.Intern(Str("t"))
	if !slices.Equal(base.kinds, kinds) || !slices.Equal(base.pages[10], last) || base.Len() != 10*pageSize+6 {
		t.Fatal("the first tail value wrote into the base")
	}
	if &d.pages[0][0] != &base.pages[0][0] || &d.pages[10][0] == &base.pages[10][0] {
		t.Error("the based dictionary copied a full page or shares the base's last one")
	}
	if d.Value(id) != Str("t") || d.Value(uint32(10*pageSize+5)) != Str("s") || d.Value(7) != Int(7) {
		t.Fatal("based values decode wrong")
	}
	c := d.Clone()
	if &c.pages[9][0] != &base.pages[9][0] || &c.pages[10][0] == &d.pages[10][0] {
		t.Error("the clone copied a full page of the base or shares the tail's")
	}
	c.Intern(Str("u"))
	if _, ok := d.ID(Str("u")); ok || c.Value(id) != Str("t") {
		t.Error("clone and source share a tail")
	}
}
