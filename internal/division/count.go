package division

import (
	"fmt"

	"radiv/internal/rel"
)

// Counts is what one counting division found: the qualifying groups,
// and on the side the cardinalities of the nodes of Section 5's
// γ-expression, which the executor reports as those nodes' flows.
type Counts struct {
	// Qualified holds the qualifying groups as IDs in Dict, in
	// first-occurrence order.
	Qualified []uint32
	Dict      *rel.Interner
	// Rows is |R| and Divisor is |S|.
	Rows, Divisor int
	// Matched is |R ⋈_{2=1} S|, and MatchedGroups the number of groups
	// it touches, |γ_{1,count(2)}(R ⋈_{2=1} S)|.
	Matched, MatchedGroups int
	// Groups counts the groups given counters: under Equality every
	// group, |γ_{1,count(2)}(R)|, and under Containment the matched
	// ones. Pure counts the matched groups with no element outside S.
	Groups, Pure int
}

// Count is Graefe's aggregate (counting) division over ID batches:
// Section 5's γ-expression run as one pass, the kernel of Aggregate and
// of the executor's γ-division operator. It reads the unary S into a
// set of values, then the binary R, counting per group the rows whose
// element is in S (matched) and all its rows (total) in flat slices
// indexed through R's column-0 dictionary; S-membership is cached per
// column-1 ID in a flat table. A group qualifies when matched = |S|,
// and under Equality when total = |S| too. Counting is exact because a
// stored relation is a set, so each matched row is a distinct divisor
// value. Under Containment a row outside S is skipped, so only matched
// groups get counters. Like the γ-expression, and unlike division, it
// yields ∅ on an empty S. grow is told, once per batch, of the entries
// the batch added — divisor values, then groups: Divisor + Groups in
// all. Every batch is released once read.
func Count(r, s rel.BatchCursor, sem Semantics, grow func(int)) Counts {
	c := counter{sem: sem, inS: rel.NewInterner(), member: map[*rel.Interner][]uint8{}}
	for b, ok := s.NextBatch(); ok; b, ok = s.NextBatch() {
		if b.Arity() != 1 {
			panic(fmt.Sprintf("division: S batch has arity %d, want 1", b.Arity()))
		}
		n := c.inS.Len()
		for _, id := range b.Col(0) {
			c.inS.Intern(b.Dict(0).Value(id))
		}
		b.Release()
		grow(c.inS.Len() - n)
	}
	for b, ok := r.NextBatch(); ok; b, ok = r.NextBatch() {
		if b.Arity() != 2 {
			panic(fmt.Sprintf("division: R batch has arity %d, want 2", b.Arity()))
		}
		n := len(c.ids)
		c.add(b)
		b.Release()
		grow(len(c.ids) - n)
	}
	need := int32(c.inS.Len())
	for g, k := range c.ids {
		if m := c.matched[g]; m > 0 {
			c.MatchedGroups++
			if m == c.total[g] {
				c.Pure++
			}
			if m == need && (sem == Containment || c.total[g] == need) {
				c.Qualified = append(c.Qualified, k)
			}
		}
	}
	c.Divisor, c.Groups, c.Dict = int(need), len(c.ids), c.keys
	return c.Counts
}

type counter struct {
	Counts
	sem    Semantics
	inS    *rel.Interner             // S's distinct values
	member map[*rel.Interner][]uint8 // per column-1 dictionary, by ID: 0 unknown, 1 outside S, 2 in S
	// keys is the dictionary group keys are IDs of: R's column-0
	// dictionary, until a batch brings a second one (rekey).
	keys           *rel.Interner
	xl             *rel.IDMap // set by rekey: translates every key into keys
	slot           []int32    // by key ID: 1 + the group's index, 0 if unseen
	ids            []uint32   // per group: its key ID
	matched, total []int32    // per group
}

// add folds one batch of R into the counters.
func (c *counter) add(b *rel.Batch) {
	d0, d1 := b.Dict(0), b.Dict(1)
	if c.keys == nil {
		c.keys = d0
	} else if d0 != c.keys && c.xl == nil {
		c.rekey()
	}
	in := c.member[d1]
	if n := d1.Len(); len(in) < n {
		in = append(in, make([]uint8, n-len(in))...)
		c.member[d1] = in
	}
	c0 := b.Col(0)
	c.Rows += len(c0)
	for row, e := range b.Col(1) {
		m := in[e]
		if m == 0 {
			m = 1
			if _, ok := c.inS.ID(d1.Value(e)); ok {
				m = 2
			}
			in[e] = m
		}
		if m == 1 && c.sem == Containment {
			continue
		}
		k := c0[row]
		if c.xl != nil {
			k = c.xl.Intern(d0, k)
		}
		if int(k) >= len(c.slot) {
			c.slot = append(c.slot, make([]int32, int(k)+1-len(c.slot))...)
		}
		g := c.slot[k] - 1
		if g < 0 {
			g = int32(len(c.ids))
			c.slot[k] = g + 1
			c.ids = append(c.ids, k)
			c.matched = append(c.matched, 0)
			c.total = append(c.total, 0)
		}
		c.total[g]++
		if m == 2 {
			c.matched[g]++
			c.Matched++
		}
	}
}

// rekey moves the group keys out of R's column-0 dictionary into one
// the kernel owns, for an R whose batches switch dictionaries (a
// sharded store's view): from then on every key is translated, so a
// value met under two dictionaries is still one group.
func (c *counter) rekey() {
	from := c.keys
	c.keys = rel.NewInterner()
	c.xl = rel.NewIDMap(c.keys)
	c.slot = make([]int32, len(c.ids))
	for g, k := range c.ids {
		c.ids[g] = c.keys.Intern(from.Value(k))
		c.slot[c.ids[g]] = int32(g) + 1
	}
}
