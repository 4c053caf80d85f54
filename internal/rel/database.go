package rel

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is a finite set of relation names with associated arities.
type Schema map[string]int

// NewSchema builds a schema from alternating name/arity pairs given as
// a map literal; it is a thin constructor for readability at call
// sites.
func NewSchema(arities map[string]int) Schema {
	s := make(Schema, len(arities))
	for name, a := range arities {
		if a < 0 {
			panic(fmt.Sprintf("rel: negative arity for %s", name))
		}
		s[name] = a
	}
	return s
}

// Arity returns the arity of the named relation; ok is false when the
// name is not part of the schema.
func (s Schema) Arity(name string) (int, bool) {
	a, ok := s[name]
	return a, ok
}

// Names returns the relation names in sorted order.
func (s Schema) Names() []string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Database assigns a finite relation to each relation name of a schema
// (Section 2). Relations are created lazily as empty.
type Database struct {
	schema Schema
	rels   map[string]*Relation
}

// NewDatabase returns an empty database over the schema.
func NewDatabase(schema Schema) *Database {
	return &Database{schema: schema, rels: make(map[string]*Relation, len(schema))}
}

// Schema returns the database's schema.
func (d *Database) Schema() Schema { return d.schema }

// Rel returns the relation assigned to name. It panics when name is not
// in the schema; a name that has not been populated yields an empty
// relation of the declared arity.
func (d *Database) Rel(name string) *Relation {
	a, ok := d.schema[name]
	if !ok {
		panic(fmt.Sprintf("rel: relation %q not in schema", name))
	}
	r, ok := d.rels[name]
	if !ok {
		r = NewRelation(a)
		d.rels[name] = r
	}
	return r
}

// View implements Store: the named relation itself is the view, with
// no indirection — evaluators running on the in-memory database pay
// nothing for the storage abstraction.
func (d *Database) View(name string) StoredRel { return d.Rel(name) }

// Add inserts a tuple into the named relation.
func (d *Database) Add(name string, t Tuple) bool { return d.Rel(name).Add(t) }

// Reserve implements Reserver: it pre-sizes the named relation's
// storage for n more tuples (creating it if necessary), so bulk loads
// with a known cardinality skip the growth doublings.
func (d *Database) Reserve(name string, n int) { d.Rel(name).Reserve(n) }

// AddInts inserts a tuple of integers into the named relation.
func (d *Database) AddInts(name string, ns ...int64) bool { return d.Rel(name).Add(Ints(ns...)) }

// AddStrs inserts a tuple of strings into the named relation.
func (d *Database) AddStrs(name string, ss ...string) bool { return d.Rel(name).Add(Strs(ss...)) }

// Size returns |D|: the sum of the cardinalities of the relations
// (Definition 15).
func (d *Database) Size() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// Clone returns a deep copy of the database.
func (d *Database) Clone() *Database {
	c := NewDatabase(d.schema)
	for name, r := range d.rels {
		c.rels[name] = r.Clone()
	}
	return c
}

// Equal reports whether the two databases have the same schema domain
// and identical relation contents.
func (d *Database) Equal(e *Database) bool {
	if len(d.schema) != len(e.schema) {
		return false
	}
	for name, a := range d.schema {
		b, ok := e.schema[name]
		if !ok || a != b {
			return false
		}
		if !d.Rel(name).Equal(e.Rel(name)) {
			return false
		}
	}
	return true
}

// TupleSpace returns the tuple space T_D of the database: the union of
// all its relations' tuple sets (Definition 25), each entry annotated
// with the relation it came from. A tuple occurring in several
// relations appears once per relation.
func (d *Database) TupleSpace() []SpaceTuple {
	var out []SpaceTuple
	for _, name := range d.schema.Names() {
		for _, t := range d.Rel(name).Tuples() {
			out = append(out, SpaceTuple{Rel: name, Tuple: t})
		}
	}
	return out
}

// SpaceTuple is an element of the tuple space together with its
// provenance.
type SpaceTuple struct {
	Rel   string
	Tuple Tuple
}

// ActiveDomain returns the sorted set of all values occurring anywhere
// in the database.
func (d *Database) ActiveDomain() []Value {
	var vs []Value
	for _, r := range d.rels {
		vs = append(vs, r.Values()...)
	}
	return Tuple(vs).Set()
}

// GuardedSets returns the guarded sets of the database: the value sets
// of its tuples (Definition 9), deduplicated. Each guarded set is a
// sorted slice of values.
func (d *Database) GuardedSets() [][]Value {
	seen := make(map[string]bool)
	var out [][]Value
	for _, st := range d.TupleSpace() {
		set := st.Tuple.Set()
		k := Tuple(set).Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, set)
	}
	return out
}

// String renders the database with relations in name order.
func (d *Database) String() string {
	var b strings.Builder
	for _, name := range d.schema.Names() {
		fmt.Fprintf(&b, "%s/%d:\n", name, d.schema[name])
		r := d.Rel(name)
		if r.Len() == 0 {
			b.WriteString("  (empty)\n")
			continue
		}
		for _, t := range r.Sorted() {
			b.WriteString("  ")
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
