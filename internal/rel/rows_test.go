package rel

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// rowReaders are the ways a relation hands out rows. Each must yield
// the stored sequence, in storage the caller owns.
var rowReaders = []struct {
	name string
	read func(r *Relation) []Tuple
}{
	{"Tuples", (*Relation).Tuples},
	{"Cursor", func(r *Relation) []Tuple { return drainTuples(r.Cursor()) }},
	{"At", func(r *Relation) []Tuple {
		var ts []Tuple
		for i := 0; i < r.Len(); i++ {
			ts = append(ts, r.At(i))
		}
		return ts
	}},
	{"BatchScan", batchScanRows},
}

// batchScanRows decodes a relation's batch scan row by row.
func batchScanRows(r *Relation) []Tuple {
	var ts []Tuple
	cur := r.BatchScanSized(100)
	for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() {
		for row := 0; row < b.Len(); row++ {
			ts = append(ts, b.Row(nil, row))
		}
	}
	return ts
}

func drainTuples(c *Cursor) []Tuple {
	var ts []Tuple
	for t, ok := c.Next(); ok; t, ok = c.Next() {
		ts = append(ts, t)
	}
	return ts
}

// rowsDiffer describes the first difference between two row sequences,
// nil when there is none.
func rowsDiffer(got, want []Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("row %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func sameRows(t *testing.T, label string, got, want []Tuple) {
	t.Helper()
	if err := rowsDiffer(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestRowsMatchColumns: the row form and the column form of a relation
// cannot disagree, and rows are caller-owned. Over generated relations
// (integers, strings and mixed; arity 0, 1, 2 and 4; empty, singleton,
// {()} and duplicate-heavy insert sequences; built by Add, by AddBatch
// from rotating foreign dictionaries and by ReadText) every row reader yields
// the inserted sequence, Sorted is its sort, and Len, Contains and
// ContainsBatch agree with it. Then every tuple every reader handed out
// is overwritten, and a second read, Contains of the original rows and
// Equal against a clone taken beforehand must not notice.
func TestRowsMatchColumns(t *testing.T) {
	kinds := []struct {
		name string
		draw func(rng *rand.Rand, domain int) Value
	}{
		{"ints", func(rng *rand.Rand, domain int) Value { return Int(int64(rng.Intn(domain))) }},
		{"strings", func(rng *rand.Rand, domain int) Value { return Str(fmt.Sprintf("s%d", rng.Intn(domain))) }},
		{"mixed", func(rng *rand.Rand, domain int) Value {
			n := rng.Intn(2 * domain)
			if n%2 == 0 {
				return Int(int64(n))
			}
			return Str(fmt.Sprintf("s%d", n))
		}},
	}
	shapes := []struct {
		name                   string
		arity, inserts, domain int
	}{
		{"empty", 2, 0, 1},
		{"singleton", 2, 1, 5},
		{"arity0-empty", 0, 0, 1},
		{"arity0-unit", 0, 3, 1}, // {()}, inserted three times
		{"arity1", 1, 200, 50},
		{"arity2", 2, 900, 25}, // several hundred distinct rows: more than one Cursor chunk
		{"arity4", 4, 700, 3},  // at most 81 distinct rows in 700 inserts
	}
	builders := []struct {
		name  string
		build func(t *testing.T, arity int, rows []Tuple) *Relation
	}{
		{"Add", func(_ *testing.T, arity int, rows []Tuple) *Relation {
			return FromTuples(arity, rows...)
		}},
		{"AddBatch", func(_ *testing.T, arity int, rows []Tuple) *Relation {
			r := NewRelation(arity)
			in := &ownBatcher{ts: rows, arity: arity, dict: r.Interner()}
			for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
				r.AddBatch(b)
			}
			return r
		}},
		{"ReadText", func(t *testing.T, arity int, rows []Tuple) *Relation {
			var file bytes.Buffer
			fmt.Fprintf(&file, "@R %d\n", arity)
			for _, row := range rows {
				fields := make([]string, len(row))
				for k, v := range row {
					fields[k] = v.String()
				}
				fmt.Fprintf(&file, "R %s\n", strings.Join(fields, ","))
			}
			d, err := ReadText(&file)
			if err != nil {
				t.Fatalf("ReadText: %v", err)
			}
			return d.Rel("R")
		}},
	}

	rng := rand.New(rand.NewSource(22))
	for _, kind := range kinds {
		for _, shape := range shapes {
			rows := make([]Tuple, shape.inserts)
			for i := range rows {
				rows[i] = make(Tuple, shape.arity)
				for k := range rows[i] {
					rows[i][k] = kind.draw(rng, shape.domain)
				}
			}
			// The stored sequence: first occurrences, in insertion order.
			var want []Tuple
			seen := make(map[string]bool)
			for _, row := range rows {
				if !seen[row.Key()] {
					seen[row.Key()] = true
					want = append(want, row)
				}
			}
			sorted := append([]Tuple(nil), want...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cmp(sorted[j]) < 0 })

			for _, builder := range builders {
				label := kind.name + "/" + shape.name + "/" + builder.name
				r := builder.build(t, shape.arity, rows)
				before := r.Clone()

				if r.Len() != len(want) || r.Arity() != shape.arity {
					t.Fatalf("%s: Len %d arity %d, want %d and %d", label, r.Len(), r.Arity(), len(want), shape.arity)
				}
				cols, dict := r.IDColumns()
				for pos, row := range want {
					for k, col := range cols {
						if !dict.Value(col[pos]).Equal(row[k]) {
							t.Fatalf("%s: column %d at %d decodes to %v, want %v", label, k, pos, dict.Value(col[pos]), row[k])
						}
					}
					if !r.Contains(row) {
						t.Fatalf("%s: stored row %v not found", label, row)
					}
				}
				hit := make([]bool, len(want))
				if r.ContainsBatch(cols, len(want), hit); slices.Contains(hit, false) {
					t.Fatalf("%s: ContainsBatch misses row %d of the relation's own columns", label, slices.Index(hit, false))
				}
				if shape.arity > 0 {
					absent := make(Tuple, shape.arity)
					for k := range absent {
						absent[k] = Str("absent")
					}
					if r.Contains(absent) {
						t.Fatalf("%s: Contains reports a row never inserted", label)
					}
				}

				scribble := func(ts []Tuple) {
					for _, tu := range ts {
						for k := range tu {
							tu[k] = Str("scribbled")
						}
					}
				}
				for _, reader := range rowReaders {
					got := reader.read(r)
					sameRows(t, label+" "+reader.name, got, want)
					scribble(got)
					sameRows(t, label+" "+reader.name+" re-read", reader.read(r), want)
				}
				got := r.Sorted()
				sameRows(t, label+" Sorted", got, sorted)
				scribble(got)

				for _, reader := range rowReaders {
					sameRows(t, label+" "+reader.name+" after every scribble", reader.read(r), want)
				}
				sameRows(t, label+" Sorted after every scribble", r.Sorted(), sorted)
				for _, row := range want {
					if !r.Contains(row) {
						t.Fatalf("%s: row %v lost after scribbling on handed-out tuples", label, row)
					}
				}
				if !r.Equal(before) || !before.Equal(r) {
					t.Fatalf("%s: relation differs from the clone taken before the scribbles", label)
				}
			}
		}
	}
}
