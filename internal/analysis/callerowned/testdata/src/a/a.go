// Package a reproduces PR 2's bare-Rel aliasing bug class: an
// evaluator whose root is a plain relation name returning the store's
// own relation, so the caller's Add writes through into the database.
// The canonical conditional-clone ownership pattern must stay silent.
package a

import "radiv/internal/rel"

// EvalBare is the historical bug shape: the bare-Rel root handed
// straight back from the store.
func EvalBare(d *rel.Database, name string) *rel.Relation {
	return d.Rel(name) // want `store-owned relation`
}

// EvalView launders the store's view through a local before returning
// it.
func EvalView(s rel.Store, name string) rel.StoredRel {
	v := s.View(name)
	return v // want `store-owned relation`
}

// EvalMaterialized drops the aliased flag of the (relation, bool)
// contract shape and returns the possibly-aliased relation.
func EvalMaterialized(s rel.Store, name string) *rel.Relation {
	r, _ := rel.Materialized(s, name)
	return r // want `store-owned relation`
}

// EvalForwarded forwards the pair wholesale, pushing the ownership
// decision onto a caller who never sees the contract.
func EvalForwarded(s rel.Store, name string) (*rel.Relation, bool) {
	return rel.Materialized(s, name) // want `possibly-aliased`
}

// EvalCloned is the canonical fix: conditional clone on the aliased
// flag before the result escapes.
func EvalCloned(s rel.Store, name string) *rel.Relation {
	r, aliased := rel.Materialized(s, name)
	if aliased {
		r = r.Clone()
	}
	return r
}

// EvalDirectClone snapshots unconditionally.
func EvalDirectClone(d *rel.Database, name string) *rel.Relation {
	return d.Rel(name).Clone()
}

// EvalFresh builds its result from scratch: operator results are
// always caller-owned.
func EvalFresh(s rel.Store, name string) *rel.Relation {
	v := s.View(name)
	out := rel.NewRelation(v.Arity())
	c := v.BatchScanSized(0)
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		out.AddBatch(b)
		b.Release()
	}
	return out
}

// probe holds interior views legitimately: unexported helpers are the
// evaluator internals the contract explicitly permits to alias.
func probe(s rel.Store, name string) rel.StoredRel {
	return s.View(name)
}

// EvalUsesProbe consumes an interior view without returning it.
func EvalUsesProbe(s rel.Store, name string, t rel.Tuple) bool {
	return probe(s, name).Contains(t)
}
