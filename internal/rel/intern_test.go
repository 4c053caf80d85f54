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
	// The dictionary doubles when full, so filling it copies it about
	// once over, not the five times append's 1.25x steps would.
	if got := cap(in.vals); got != 1024 {
		t.Errorf("dictionary of 1000 values has capacity %d, want 1024", got)
	}
	// The index is kept at most half full.
	if got := len(in.slots); got != 2048 {
		t.Errorf("dictionary of 1000 values has %d slots, want 2048", got)
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
// internText and ID against the model, then freezes the dictionary at
// that point and keeps interning.
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
			// to a doubling of the value slice or the index.
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

			frozen := FreezeDict(c.in)
			prefix := slices.Clone(c.vals)
			for i := 0; i < 2000; i++ {
				c.randomOp(rng, 1<<50)
			}
			c.sweep()
			if frozen.Len() != len(prefix) {
				t.Fatalf("frozen Len = %d, want %d", frozen.Len(), len(prefix))
			}
			for id, v := range c.vals {
				got, ok := frozen.ID(v)
				if inPrefix := id < len(prefix); ok != inPrefix || (ok && got != uint32(id)) {
					t.Fatalf("frozen ID(%#v) = %d, %v; the value has ID %d and the prefix ends at %d", v, got, ok, id, len(prefix))
				}
			}
			if len(c.vals) > len(prefix) {
				func() {
					defer func() {
						if recover() == nil {
							t.Error("frozen Value past the prefix did not panic")
						}
					}()
					frozen.Value(uint32(len(prefix)))
				}()
			}
		})
	}
}

// FuzzInterner reads its input as a stream of operations — a byte that
// picks the operation and the dictionary it goes to, then an operand up
// to the next zero byte — and runs them against the model. The clone
// operation adds a dictionary, and every later operation goes to one of
// those made so far, so clones and their sources keep growing apart.
func FuzzInterner(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dicts := []*checkedDict{newCheckedDict(t)}
		for len(data) > 0 {
			op := data[0]
			var arg []byte
			arg, data, _ = bytes.Cut(data[1:], []byte{0})
			c := dicts[int(op>>4)%len(dicts)]
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
	})
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
