package plan

import "radiv/internal/rel"

// MayEmitDuplicates exposes the executor's duplicate analysis to the
// executor suite, whose flow law is stated in its terms.
var MayEmitDuplicates = mayEmitDuplicates

// NewSplitStore exposes the two-run test store to the executor suite.
func NewSplitStore(d *rel.Database) rel.ReadStore { return newSplitStore(d) }

// splitStore is a rel.ReadStore holding each relation of a database as
// two runs, the first half of its rows and the rest, in two relations
// of one database of its own — so over one dictionary, the store's, as
// a ReadStore must be, but not d's: its IDs differ from d's. It is the
// executor's view of a store that is not a *rel.Database: nothing is
// replayed in place, and a scan crosses from one relation to another
// mid-relation.
type splitStore struct {
	d    *rel.Database
	runs *rel.Database
	rels map[string]*splitRel
}

func newSplitStore(d *rel.Database) *splitStore {
	schema := rel.Schema{}
	for name, a := range d.Schema() {
		schema[name+"/0"], schema[name+"/1"] = a, a
	}
	s := &splitStore{d: d, runs: rel.NewDatabase(schema), rels: map[string]*splitRel{}}
	for _, name := range d.Schema().Names() {
		src := d.Rel(name)
		r := &splitRel{arity: src.Arity(), runs: [2]*rel.Relation{s.runs.Rel(name + "/0"), s.runs.Rel(name + "/1")}}
		for i, tp := range src.Tuples() {
			r.runs[2*i/max(src.Len(), 1)].Add(tp)
		}
		s.rels[name] = r
	}
	return s
}

func (s *splitStore) Schema() rel.Schema { return s.d.Schema() }

func (s *splitStore) View(name string) rel.StoredRel {
	s.d.Rel(name) // panics for a name outside the schema
	return s.rels[name]
}

func (s *splitStore) Size() int { return s.d.Size() }

func (s *splitStore) Dict() *rel.Interner { return s.runs.Dict() }

// splitRel is one relation of a splitStore.
type splitRel struct {
	arity int
	runs  [2]*rel.Relation
}

func (r *splitRel) Arity() int { return r.arity }

func (r *splitRel) Len() int { return r.runs[0].Len() + r.runs[1].Len() }

// ContainsBatch probes both runs and ORs their answers.
func (r *splitRel) ContainsBatch(cols [][]uint32, n int, hit []bool) {
	r.runs[0].ContainsBatch(cols, n, hit)
	second := make([]bool, n)
	r.runs[1].ContainsBatch(cols, n, second)
	for i, in := range second {
		hit[i] = hit[i] || in
	}
}

func (r *splitRel) BatchScanSized(size int) rel.BatchCursor {
	return &runsCursor{cs: []rel.BatchCursor{r.runs[0].BatchScanSized(size), r.runs[1].BatchScanSized(size)}}
}

// runsCursor drains its cursors one after the other.
type runsCursor struct{ cs []rel.BatchCursor }

func (c *runsCursor) NextBatch() (*rel.Batch, bool) {
	for len(c.cs) > 0 {
		if b, ok := c.cs[0].NextBatch(); ok {
			return b, true
		}
		c.cs = c.cs[1:]
	}
	return nil, false
}
