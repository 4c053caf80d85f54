package rel

// This file defines the storage abstraction of the library: Store is
// what a "database" looks like to every layer above the tuple store —
// the materialized ra/sa/xra evaluators, the executor in internal/plan,
// the text codec, and the engine's dictionary builders all consume this
// interface rather than the concrete in-memory *Database. The
// in-memory Database is one implementation; internal/shard provides a
// hash-partitioned one that splits every relation across shard-local
// stores behind the same contract.
//
// The contract every implementation must honor, because the
// executor's byte-identity guarantees rest on it:
//
//   - BatchScanSized yields the stored ID columns in global insertion
//     order (the order Add first accepted them), so any evaluator
//     produces the same output sequence on any backend holding the
//     same data;
//   - Add deduplicates with set semantics, exactly like Relation.Add;
//   - View panics for names outside the schema, mirroring
//     Database.Rel;
//   - yielded batches may alias backend storage and are read-only.

import "fmt"

// StoredRel is the per-relation handle of a Store: the read-only view
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
	// Contains reports membership of t.
	Contains(t Tuple) bool
}

// ReadStore is the read side of a database backend: a schema plus one
// read-only relation view per schema name. It is the parameter type of
// every evaluator in internal/ra, internal/sa and internal/xra — the
// evaluators never write into their input store, and taking only the
// read interface makes that a type-level fact. A published *Snapshot
// implements ReadStore and nothing more: there is no way to route a
// mutation through it.
type ReadStore interface {
	// Schema returns the store's schema.
	Schema() Schema
	// View returns the handle of the named relation; it panics when
	// name is not in the schema.
	View(name string) StoredRel
	// Size returns the sum of the relations' cardinalities.
	Size() int
}

// Store is a writable database backend: the read side plus Add. It is
// what loaders (CopyStore, the text codec's ReadText consumers) and
// result sinks require.
type Store interface {
	ReadStore
	// Add inserts a tuple into the named relation, reporting whether it
	// was new. It panics when name is not in the schema or the arity is
	// wrong.
	Add(name string, t Tuple) bool
}

var _ Store = (*Database)(nil)
var _ StoredRel = (*Relation)(nil)

// Materialized returns the named relation of s as a *Relation, for
// consumers that need whole-relation operations (the materialized
// evaluators' base case, the divisor of a sharded division, the ID
// columns shard.FromStore loads from). For
// the in-memory Database — and for a published Snapshot, whose sealed
// relations are frozen — it is the stored relation itself: aliased is
// true and the caller must treat it as read-only. Any other backend
// materializes a fresh copy from its batch scan, owned by the caller:
// AddBatch interns row by row, column by column, so the copy has the
// dictionary order tuple-wise Adds of the scan would give it.
func Materialized(s ReadStore, name string) (r *Relation, aliased bool) {
	switch d := s.(type) {
	case *Database:
		return d.Rel(name), true
	case *Snapshot:
		return d.Rel(name), true
	}
	v := s.View(name)
	r = NewRelationSized(v.Arity(), v.Len())
	c := v.BatchScanSized(BatchCap)
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		r.AddBatch(b)
		b.Release()
	}
	r.DropBatchCache()
	return r, false
}

// Reserver is the optional capacity-hint hook of a Store: Reserve
// pre-sizes the named relation's storage for n more tuples. *Database
// and *Epoch implement it; CopyStore uses it so bulk loads never grow
// storage from zero.
type Reserver interface {
	Reserve(name string, n int)
}

// CopyStore adds every tuple of src into dst, relations in schema name
// order, tuples in scan (insertion) order — so a deterministically
// built source reproduces deterministically in any destination
// backend. Every relation of src's schema must exist in dst's schema
// with the same arity; dst keeps any relations of its own.
func CopyStore(dst Store, src ReadStore) {
	res, _ := dst.(Reserver)
	for _, name := range src.Schema().Names() {
		v := src.View(name)
		if res != nil {
			res.Reserve(name, v.Len())
		}
		c := scanTuples(v)
		for t, ok := c.Next(); ok; t, ok = c.Next() {
			dst.Add(name, t)
		}
	}
}

// StoresEqual reports whether two stores have the same schema domain
// and identical relation contents (as sets — insertion order is not
// compared). It is Database.Equal generalized over backends, so a
// sharded store can be compared against the in-memory database it was
// loaded from.
func StoresEqual(a, b ReadStore) bool {
	as, bs := a.Schema(), b.Schema()
	if len(as) != len(bs) {
		return false
	}
	for name, ar := range as {
		br, ok := bs[name]
		if !ok || ar != br {
			return false
		}
		av, bv := a.View(name), b.View(name)
		if av.Len() != bv.Len() {
			return false
		}
		c := scanTuples(av)
		for t, ok := c.Next(); ok; t, ok = c.Next() {
			if !bv.Contains(t) {
				return false
			}
		}
	}
	return true
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
// in-memory Database and for a published Snapshot it hands out the
// stored relations themselves (aliased, zero copies); any other
// backend materializes each relation once per evaluation and serves
// later references from the memo — a relation named k times in an
// expression is copied once.
type BaseResolver struct {
	s    ReadStore
	pkg  string
	memo map[string]*Relation // nil for the zero-copy backends
}

// NewBaseResolver returns a resolver panicking with the given package
// prefix on arity mismatches.
func NewBaseResolver(s ReadStore, pkg string) *BaseResolver {
	r := &BaseResolver{s: s, pkg: pkg}
	switch s.(type) {
	case *Database, *Snapshot:
		// zero-copy views: no memo needed
	default:
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
