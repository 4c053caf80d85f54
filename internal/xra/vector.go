package xra

// This file is the extended algebra's part of the batch operator
// library (see internal/ra/vector.go for the generic operators): the γ
// cursor, built by internal/plan's executor like any other operator. γ
// gathers group keys columnar-ly: group columns are translated into
// one key dictionary through rel.IDMap caches, so after the first
// occurrence of a value, grouping a row is an array load and — past a
// single key column — a rel.RowSet probe: a hash of flat IDs and an
// integer-compare chain walk (no per-row tuple is built, and key
// equality is ID equality — exact, because the IDs live in a single
// dictionary). The accumulator is rel.RowSets of IDs, one row per
// metered entry — groups, distinct counted values, deduplicated input
// rows — so what it holds is what a governor's MaxResident budget sees.
// Emission is first-occurrence group order with the SQL-style zero row
// for an empty grand aggregate.
//
// That is the Section 5 punchline in memory terms: the γ-division
// expression not only keeps its *flow* linear (what EvalTraced shows),
// its executor *holds* only the per-group counters and one build side
// at a time, so plan.Trace.MaxResident stays linear too (experiment
// ST2).

import (
	"fmt"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// NewGammaBatchCursor builds a γ cursor. dedupAll must be set when
// countCol is 0 and the input can deliver duplicate tuples (a
// dedup-deferring projection below it) — count(*) is only exact over a
// set. Column indices are validated against inputArity with the usual
// "xra:"-prefixed panics. capacity bounds the emitted batches (0 means
// rel.BatchCap).
func NewGammaBatchCursor(in ra.BatchCursor, groupCols []int, countCol, inputArity int, dedupAll bool, m *ra.Meter, capacity int) ra.BatchCursor {
	for _, c := range groupCols {
		if c < 1 || c > inputArity {
			panic(fmt.Sprintf("xra: group column %d out of range 1..%d", c, inputArity))
		}
	}
	if countCol < 0 || countCol > inputArity {
		panic(fmt.Sprintf("xra: count column %d out of range 0..%d", countCol, inputArity))
	}
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	g := &Gamma{GroupCols: append([]int(nil), groupCols...), CountCol: countCol}
	return &vecGammaCursor{in: in, g: g, inputArity: inputArity,
		dedupAll: countCol == 0 && dedupAll, meter: m, capacity: capacity}
}

// gammaBatchAgg is γ's accumulator: group keys and counted values are
// translated into accumulator-owned dictionaries through rel.IDMap
// caches (amortizing interning over batch dictionary reuse), so key
// equality is ID equality. Groups are rows of key IDs in one RowSet, in
// first-occurrence order; the distinct counted values are (group index,
// value ID) rows in a second one — one flat row per metered entry,
// never a per-group structure sized by the value dictionary. Exact
// count(*) over duplicate-capable inputs deduplicates full rows in an
// ra.IDSet.
type gammaBatchAgg struct {
	g      *Gamma
	keys   *rel.Interner
	keysXl *rel.IDMap
	vals   *rel.Interner
	valsXl *rel.IDMap
	groups *rel.RowSet // group key rows
	counts []int       // per group, parallel to groups
	byKey  []int32     // single group column: 1 + group index by key ID
	pairs  *rel.RowSet // distinct (group index, counted value ID); CountCol > 0
	idbuf  []uint32
	pair   [2]uint32
	seen   *ra.IDSet // distinct input rows; only when dedupAll and CountCol == 0
	held   int
}

func newGammaBatchAgg(g *Gamma, inputArity int, dedupAll bool) *gammaBatchAgg {
	a := &gammaBatchAgg{
		g:      g,
		keys:   rel.NewInterner(),
		groups: rel.NewRowSet(len(g.GroupCols)),
		pairs:  rel.NewRowSet(2),
		idbuf:  make([]uint32, len(g.GroupCols)),
	}
	a.keysXl = rel.NewIDMap(a.keys)
	if g.CountCol > 0 {
		a.vals = rel.NewInterner()
		a.valsXl = rel.NewIDMap(a.vals)
	} else if dedupAll {
		a.seen = ra.NewIDSet(inputArity)
	}
	return a
}

// add folds row `row` of b into the aggregate, returning the number of
// new accumulator entries created (for resident metering).
func (a *gammaBatchAgg) add(b *rel.Batch, row int) int {
	grew := 0
	if a.seen != nil {
		if !a.seen.Add(b, row) {
			return 0
		}
		grew++
	}
	for i, c := range a.g.GroupCols {
		a.idbuf[i] = a.keysXl.Intern(b.Dict(c-1), b.Col(c - 1)[row])
	}
	var gi int
	var fresh bool
	if len(a.idbuf) == 1 {
		// Single-key fast path: key IDs are dense in the key
		// dictionary, so the group is an array load away — no hash, no
		// probe but a new group's insert. The index doubles when a key
		// ID outruns it; sizing it to the dictionary instead would copy
		// it once per new group.
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
	if a.g.CountCol == 0 {
		a.counts[gi]++
	} else {
		a.pair[0] = uint32(gi)
		a.pair[1] = a.valsXl.Intern(b.Dict(a.g.CountCol-1), b.Col(a.g.CountCol - 1)[row])
		if _, fresh := a.pairs.Insert(a.pair[:]); fresh {
			a.counts[gi]++
			grew++
		}
	}
	a.held += grew
	return grew
}

// vecGammaCursor streams its input into a gammaBatchAgg, then emits
// the aggregate rows as pooled batches in group first-occurrence
// order: group-key columns carry the accumulator's key dictionary,
// and the count column a fresh dictionary of the distinct counts.
type vecGammaCursor struct {
	in         ra.BatchCursor
	g          *Gamma
	inputArity int
	dedupAll   bool
	meter      *ra.Meter
	capacity   int

	opened bool
	agg    *gammaBatchAgg
	counts *rel.Interner
	gi     int
	done   bool
}

func (c *vecGammaCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.agg = newGammaBatchAgg(c.g, c.inputArity, c.dedupAll)
		for b, ok := c.in.NextBatch(); ok; b, ok = c.in.NextBatch() {
			n := b.Len()
			for row := 0; row < n; row++ {
				if grew := c.agg.add(b, row); grew > 0 {
					c.meter.Grow(grew)
				}
			}
			b.Release()
		}
		c.counts = rel.NewInterner()
	}
	if c.done {
		return nil, false
	}
	ng := c.agg.groups.Len()
	if c.gi < ng {
		k := len(c.g.GroupCols)
		out := rel.NewBatchSized(k+1, c.capacity)
		for i := 0; i < k; i++ {
			out.SetDict(i, c.agg.keys)
		}
		out.SetDict(k, c.counts)
		hi := c.gi + c.capacity
		if hi > ng {
			hi = ng
		}
		rows := 0
		keys := c.agg.groups.Cols()
		for ; c.gi < hi; c.gi++ {
			for i, col := range keys {
				out.WritableCol(i)[rows] = col[c.gi]
			}
			out.WritableCol(k)[rows] = c.counts.Intern(rel.Int(int64(c.agg.counts[c.gi])))
			rows++
		}
		out.SetLen(rows)
		return out, true
	}
	emitZero := len(c.g.GroupCols) == 0 && ng == 0
	c.done = true
	c.meter.Release(c.agg.held)
	c.agg = nil
	if emitZero {
		// Grand aggregate over an empty input is a single zero row, as
		// in SQL.
		out := rel.NewBatchSized(1, c.capacity)
		out.SetDict(0, c.counts)
		out.WritableCol(0)[0] = c.counts.Intern(rel.Int(0))
		out.SetLen(1)
		return out, true
	}
	return nil, false
}
