package division

import (
	"fmt"

	"radiv/internal/rel"
)

// Counts is what one counting division found: the qualifying groups,
// and on the side the cardinalities of the nodes of Section 5's
// γ-expression, which the executor reports as those nodes' flows.
type Counts struct {
	// Qualified holds the qualifying groups as IDs in Dict, R's
	// dictionary, in first-occurrence order.
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
// indexed by R's IDs, all of one dictionary (an R stream whose batches
// switch dictionaries panics); S-membership is cached per column-1 ID
// in a flat table. A group qualifies when matched = |S|,
// and under Equality when total = |S| too. Counting is exact because a
// stored relation is a set, so each matched row is a distinct divisor
// value. Under Containment a row outside S is skipped, so only matched
// groups get counters. Like the γ-expression, and unlike division, it
// yields ∅ on an empty S. grow is told, once per batch, of the entries
// the batch added — divisor values, then groups: Divisor + Groups in
// all.
func Count(r, s rel.BatchCursor, sem Semantics, grow func(int)) Counts {
	c := counter{sem: sem, inS: rel.NewInterner()}
	for b, ok := s.NextBatch(); ok; b, ok = s.NextBatch() {
		if b.Arity() != 1 {
			panic(fmt.Sprintf("division: S batch has arity %d, want 1", b.Arity()))
		}
		n := c.inS.Len()
		for _, id := range b.Col(0) {
			c.inS.Intern(b.Dict().Value(id))
		}
		grow(c.inS.Len() - n)
	}
	for b, ok := r.NextBatch(); ok; b, ok = r.NextBatch() {
		if b.Arity() != 2 {
			panic(fmt.Sprintf("division: R batch has arity %d, want 2", b.Arity()))
		}
		n := len(c.ids)
		c.add(b)
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
	c.Divisor, c.Groups = int(need), len(c.ids)
	return c.Counts
}

type counter struct {
	Counts         // Dict is R's dictionary, set by its first batch
	sem            Semantics
	inS            *rel.Interner // S's distinct values
	member         []uint8       // by R ID: 0 unknown, 1 outside S, 2 in S
	slot           []int32       // by key ID: 1 + the group's index, 0 if unseen
	ids            []uint32      // per group: its key ID
	matched, total []int32       // per group
}

// add folds one batch of R into the counters. Every batch of R must
// carry the dictionary of the first: the group keys are its IDs.
func (c *counter) add(b *rel.Batch) {
	d := b.Dict()
	if c.Dict == nil {
		c.Dict = d
	} else if d != c.Dict {
		panic("division: the R batches switch dictionaries")
	}
	if n := d.Len(); len(c.member) < n {
		c.member = append(c.member, make([]uint8, n-len(c.member))...)
	}
	c0 := b.Col(0)
	c.Rows += len(c0)
	for row, e := range b.Col(1) {
		m := c.member[e]
		if m == 0 {
			m = 1
			if _, ok := c.inS.ID(d.Value(e)); ok {
				m = 2
			}
			c.member[e] = m
		}
		if m == 1 && c.sem == Containment {
			continue
		}
		k := c0[row]
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
