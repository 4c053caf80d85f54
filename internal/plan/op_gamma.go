package plan

// This file holds the executor's γ operator. γ groups on the raw IDs
// of its group columns — IDs of the query's one dictionary, so key
// equality is ID equality — and past a single key column through a
// rel.RowSet probe: a hash of flat IDs and an integer-compare chain
// walk (no per-row tuple is built). The accumulator is rel.RowSets of
// IDs, one row per metered entry — groups, distinct counted values,
// deduplicated input rows — so what it holds is what a governor's
// MaxResident budget sees. Emission is first-occurrence group order
// with the SQL-style zero row for an empty grand aggregate; a count is
// interned into the query dictionary as it is emitted, so a count equal
// to a stored integer gets that integer's ID.
//
// That is the Section 5 punchline in memory terms: the γ-division
// expression not only keeps its *flow* linear (what xra.EvalTraced
// shows), its executor *holds* only the per-group counters and one
// build side at a time, so Trace.MaxResident stays linear too
// (experiment ST2).

import "radiv/internal/rel"

// gammaBatchAgg is γ's accumulator. Groups are rows of key IDs in one
// RowSet, in first-occurrence order; the distinct counted values are
// (group index, value ID) rows in a second one — one flat row per
// metered entry, never a per-group structure sized by the dictionary.
// Exact count(*) over duplicate-capable inputs deduplicates full rows
// in an idSet.
type gammaBatchAgg struct {
	groupCols []int       // 1-based
	countCol  int         // 1-based; 0 is count(*)
	groups    *rel.RowSet // group key rows
	counts    []int       // per group, parallel to groups
	byKey     []int32     // single group column: 1 + group index by key ID
	pairs     *rel.RowSet // distinct (group index, counted value ID); countCol > 0
	idbuf     []uint32
	pair      [2]uint32
	seen      *idSet // distinct input rows; only when dedupAll and countCol == 0
	held      int
}

func newGammaBatchAgg(groupCols []int, countCol, inputArity int, dedupAll bool) *gammaBatchAgg {
	a := &gammaBatchAgg{
		groupCols: groupCols,
		countCol:  countCol,
		groups:    rel.NewRowSet(len(groupCols)),
		pairs:     rel.NewRowSet(2),
		idbuf:     make([]uint32, len(groupCols)),
	}
	if countCol == 0 && dedupAll {
		a.seen = newIDSet(inputArity)
	}
	return a
}

// add folds row `row` of b into the aggregate, returning the number of
// new accumulator entries created (for resident metering).
func (a *gammaBatchAgg) add(b *rel.Batch, row int) int {
	grew := 0
	if a.seen != nil {
		if _, fresh := a.seen.insert(b, row, nil); !fresh {
			return 0
		}
		grew++
	}
	for i, c := range a.groupCols {
		a.idbuf[i] = b.Col(c - 1)[row]
	}
	var gi int
	var fresh bool
	if len(a.idbuf) == 1 {
		// Single-key fast path: the group is an array load away — no
		// hash, no probe but a new group's insert. The index doubles
		// when a key ID outruns it; sizing it to each new ID instead
		// would copy it once per new group.
		kid := a.idbuf[0]
		if int(kid) >= len(a.byKey) {
			grown := make([]int32, max(2*len(a.byKey), int(kid)+1, 16))
			copy(grown, a.byKey)
			a.byKey = grown
		}
		if at := a.byKey[kid]; at != 0 {
			gi = int(at - 1)
		} else {
			gi, fresh = a.groups.Insert(a.idbuf)
			a.byKey[kid] = int32(gi) + 1
		}
	} else {
		gi, fresh = a.groups.Insert(a.idbuf)
	}
	if fresh {
		a.counts = append(a.counts, 0)
		grew++
	}
	if a.countCol == 0 {
		a.counts[gi]++
	} else {
		a.pair[0] = uint32(gi)
		a.pair[1] = b.Col(a.countCol - 1)[row]
		if _, fresh := a.pairs.Insert(a.pair[:]); fresh {
			a.counts[gi]++
			grew++
		}
	}
	a.held += grew
	return grew
}

// gammaCursor is γ_{groupCols; count(countCol)}: it streams its input
// into a gammaBatchAgg, then emits the aggregate rows through its own
// batch in group first-occurrence order: the group keys' IDs, and each
// count's ID in the query dictionary. dedupAll is set when countCol is
// 0 and the input can deliver duplicate tuples (mayEmitDuplicates) —
// count(*) is only exact over a set.
type gammaCursor struct {
	in         rel.BatchCursor
	groupCols  []int
	countCol   int
	inputArity int
	dedupAll   bool
	meter      *meter
	capacity   int
	dict       *rel.Interner

	opened bool
	agg    *gammaBatchAgg
	gi     int
	done   bool
	out    *rel.Batch
}

func (c *gammaCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.agg = newGammaBatchAgg(c.groupCols, c.countCol, c.inputArity, c.dedupAll)
		for b, ok := c.in.NextBatch(); ok; b, ok = c.in.NextBatch() {
			n := b.Len()
			for row := 0; row < n; row++ {
				if grew := c.agg.add(b, row); grew > 0 {
					c.meter.grow(grew)
				}
			}
		}
	}
	if c.done {
		return nil, false
	}
	ng := c.agg.groups.Len()
	if c.gi < ng {
		k := len(c.groupCols)
		out := refill(&c.out, k+1, c.capacity)
		hi := min(c.gi+c.capacity, ng)
		rows := 0
		keys := c.agg.groups.Cols()
		for ; c.gi < hi; c.gi++ {
			for i, col := range keys {
				out.WritableCol(i)[rows] = col[c.gi]
			}
			out.WritableCol(k)[rows] = c.dict.Intern(rel.Int(int64(c.agg.counts[c.gi])))
			rows++
		}
		out.SetLen(rows)
		return out, true
	}
	emitZero := len(c.groupCols) == 0 && ng == 0
	c.done = true
	c.meter.release(c.agg.held)
	c.agg = nil
	if emitZero {
		// Grand aggregate over an empty input is a single zero row, as
		// in SQL.
		out := refill(&c.out, 1, c.capacity)
		out.WritableCol(0)[0] = c.dict.Intern(rel.Int(0))
		out.SetLen(1)
		return out, true
	}
	return nil, false
}
