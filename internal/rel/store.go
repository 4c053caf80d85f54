package rel

// This file defines the storage abstraction of the library: ReadStore
// is what a "database" looks like to every layer above the tuple store
// — the materialized ra/sa/xra evaluators, the executor in
// internal/plan, the text writer and shard.FromStore all consume this
// interface rather than the concrete in-memory *Database. The
// in-memory Database implements it, and internal/faultinject wraps it.
//
// The contract every implementation must honor, because the
// executor's byte-identity guarantees rest on it:
//
//   - every relation's IDs are drawn from the store's one dictionary,
//     Dict: its scans and ContainsBatch speak that dictionary's IDs, so
//     the executor compares IDs of two relations as they stand. A store
//     whose relations mix dictionaries is not a ReadStore;
//   - BatchScanSized yields the stored ID columns in global insertion
//     order (the order Add first accepted them), so any evaluator
//     produces the same output sequence on any backend holding the
//     same data;
//   - View panics for names outside the schema, mirroring
//     Database.Rel;
//   - yielded batches may alias backend storage and are read-only.
//
// A result computed from a store keeps the store's IDs: its dictionary
// is based on Dict (NewRelationOver), and values the store lacks go
// into the result's own tail. So a result reads its store's
// dictionary, and no goroutine may write the store while another reads
// a result, as for any read of the store.

import "fmt"

// StoredRel is the per-relation handle of a ReadStore: the read-only view
// the evaluators scan, probe and replay in place. *Relation implements
// it directly, so for the in-memory Database the view is the stored
// relation itself, with no indirection.
type StoredRel interface {
	// Arity returns the relation's arity.
	Arity() int
	// Len returns the relation's cardinality.
	Len() int
	// BatchScanSized returns a cursor over the relation's rows in
	// insertion order, in batches of at most size rows (size < 1 means
	// BatchCap). Yielded batches may alias backend storage: read-only.
	BatchScanSized(size int) BatchCursor
	// ContainsBatch sets hit[i] to whether the relation holds row i of
	// the n rows given as columns of IDs in the store's dictionary — row
	// i is cols[k][i] for every k. cols must have the relation's arity
	// and hit at least n entries; an ID the dictionary never assigned
	// matches no row. It only reads: the executor's difference probes a
	// stored subtrahend with each batch's columns as they stand, one call
	// per batch.
	ContainsBatch(cols [][]uint32, n int, hit []bool)
}

// ReadStore is the read side of a database backend: a schema plus one
// read-only relation view per schema name. It is the parameter type of
// every evaluator in internal/ra, internal/sa and internal/xra — the
// evaluators never write into their input store, and taking only the
// read interface makes that a type-level fact.
type ReadStore interface {
	// Schema returns the store's schema.
	Schema() Schema
	// View returns the handle of the named relation; it panics when
	// name is not in the schema.
	View(name string) StoredRel
	// Size returns the sum of the relations' cardinalities.
	Size() int
	// Dict returns the dictionary every relation's IDs are drawn from.
	// A reader must not write to it: the executor's result, and the
	// values a query creates, sit on it as a base (NewRelationOver).
	Dict() *Interner
}

var _ ReadStore = (*Database)(nil)
var _ StoredRel = (*Relation)(nil)

// Materialized returns the named relation of s as a *Relation, for
// consumers that need whole-relation operations (the materialized
// evaluators' base case).
// For the in-memory Database it is the stored relation itself: aliased
// is true and the caller must treat it as read-only. Any other
// backend materializes a fresh copy from its batch scan, owned by the
// caller: its rows keep the store's IDs, over a dictionary based on the
// store's (NewRelationOver) that keeps values the store lacks in a tail
// of its own, so an Add to the copy writes that tail only. The copy
// reads the store's dictionary: no goroutine may write the store while
// another reads the copy.
func Materialized(s ReadStore, name string) (r *Relation, aliased bool) {
	if d, ok := s.(*Database); ok {
		return d.Rel(name), true
	}
	v := s.View(name)
	r = NewRelationOver(v.Arity(), s.Dict())
	r.Reserve(v.Len())
	c := v.BatchScanSized(BatchCap)
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		r.AddBatch(b)
	}
	return r, false
}

// CheckView resolves the named relation's view and verifies its arity
// against an expression's expectation, panicking with the caller's
// package prefix on mismatch — the shared base-relation resolution of
// the three algebras' evaluators.
func CheckView(s ReadStore, name string, arity int, pkg string) StoredRel {
	v := s.View(name)
	if v.Arity() != arity {
		panic(fmt.Sprintf("%s: relation %s has arity %d in database, expression expects %d", pkg, name, v.Arity(), arity))
	}
	return v
}

// BaseResolver is the base-relation resolution of a materialized
// evaluator over a ReadStore, shared by the ra and sa evaluators so
// the ownership and memoization rules live in one place. For the
// in-memory Database it hands out the stored relations themselves
// (aliased, zero copies); any other
// backend materializes each relation once per evaluation and serves
// later references from the memo — a relation named k times in an
// expression is copied once.
type BaseResolver struct {
	s    ReadStore
	pkg  string
	memo map[string]*Relation // nil for the in-memory Database
}

// NewBaseResolver returns a resolver panicking with the given package
// prefix on arity mismatches.
func NewBaseResolver(s ReadStore, pkg string) *BaseResolver {
	r := &BaseResolver{s: s, pkg: pkg}
	if _, ok := s.(*Database); !ok {
		r.memo = make(map[string]*Relation)
	}
	return r
}

// Resolve checks the node's arity and returns the relation plus
// whether it aliases store-owned storage: true exactly when the store
// handed out its own relation, which a caller returning it as a root
// result must clone. Memoized snapshots are fresh (never aliased) but
// shared within the evaluation: interior read-only views.
func (b *BaseResolver) Resolve(name string, arity int) (*Relation, bool) {
	CheckView(b.s, name, arity, b.pkg)
	if b.memo != nil {
		if r, ok := b.memo[name]; ok {
			return r, false
		}
	}
	r, aliased := Materialized(b.s, name)
	if b.memo != nil {
		b.memo[name] = r
	}
	return r, aliased
}
