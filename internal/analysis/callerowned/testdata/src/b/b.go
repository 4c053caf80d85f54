// Package b covers the method half of the contract: exported methods
// are evaluator entry points too (plan.Plan.Execute, the engine
// wrappers), so a method handing back a store view is the same bug as
// a function doing it. Unexported methods stay interior.
package b

import "radiv/internal/rel"

// Engine wraps a store behind evaluator-style methods.
type Engine struct {
	d *rel.Database
}

// Rel is the method form of the bare-Rel bug: the store's own
// relation escapes through an exported method.
func (e *Engine) Rel(name string) *rel.Relation {
	return e.d.Rel(name) // want `store-owned relation`
}

// View launders the view through a local first.
func (e *Engine) View(s rel.Store, name string) rel.StoredRel {
	v := s.View(name)
	return v // want `store-owned relation`
}

// Forward pushes the (relation, bool) pair wholesale onto the caller.
func (e *Engine) Forward(s rel.Store, name string) (*rel.Relation, bool) {
	return rel.Materialized(s, name) // want `possibly-aliased`
}

// Execute is the canonical entry-point shape: conditional clone on
// the aliased flag, so the result is caller-owned. Must stay silent.
func (e *Engine) Execute(s rel.Store, name string) *rel.Relation {
	r, aliased := rel.Materialized(s, name)
	if aliased {
		r = r.Clone()
	}
	return r
}

// Snapshot clones unconditionally. Must stay silent.
func (e *Engine) Snapshot(name string) *rel.Relation {
	return e.d.Rel(name).Clone()
}

// Fresh builds its result from scratch. Must stay silent.
func (e *Engine) Fresh(s rel.Store, name string) *rel.Relation {
	v := s.View(name)
	out := rel.NewRelation(v.Arity())
	c := v.BatchScanSized(0)
	for b, ok := c.NextBatch(); ok; b, ok = c.NextBatch() {
		out.AddBatch(b)
		b.Release()
	}
	return out
}

// view is an unexported method: interior helpers may hold views by
// design. Must stay silent.
func (e *Engine) view(name string) *rel.Relation {
	return e.d.Rel(name)
}

// Contains consumes the interior view without returning it. Must stay
// silent.
func (e *Engine) Contains(name string, t rel.Tuple) bool {
	return e.view(name).Contains(t)
}
