package rel

// This file implements the writer side of the epoch machinery. An
// Epoch is the single-writer front of a store: mutations accumulate
// in private working copies (one per relation touched this epoch, a
// copy-on-write clone of the sealed base), and Publish atomically
// swaps in a new immutable Snapshot. Readers never synchronize with
// the writer beyond one atomic pointer load: they grab the current
// snapshot and keep evaluating against it for as long as they like —
// before, during and after any number of later publishes — with
// byte-identical results throughout (the snapshot-isolation property
// the randomized suite in snapshot_test.go pins under -race).
//
// Cost model: publishing is O(#relations) map copying plus version
// bumps; the data is shared structurally. The copy-on-write cost —
// one Clone of a relation: a copy of its ID columns, its index and
// its dictionary, nothing re-hashed or re-interned — is paid at most
// once per relation per epoch, on the first write, and only for
// relations actually written. The working copy's interned IDs,
// columns and scan order are therefore identical to the sealed base's.

import (
	"fmt"
	"sync/atomic"
)

// Epoch is the epoch writer over a schema. All methods except
// Snapshot must be called from a single writer goroutine (the same
// single-writer discipline Database has always had); Snapshot may be
// called from any goroutine at any time.
type Epoch struct {
	schema   Schema
	sealed   map[string]*Relation // published bases, immutable
	work     map[string]*Relation // private working copies, this epoch's writes
	versions map[string]uint64
	epoch    uint64
	cur      atomic.Pointer[Snapshot]
}

// Epoch implements the full Store contract for loaders plus the
// Reserver capacity hook; its published snapshots implement ReadStore
// only.
var (
	_ Store    = (*Epoch)(nil)
	_ Reserver = (*Epoch)(nil)
)

// NewEpoch returns an epoch writer over the schema with an empty
// epoch-0 snapshot already published: Snapshot never returns nil.
func NewEpoch(schema Schema) *Epoch {
	w := &Epoch{
		schema:   schema,
		sealed:   make(map[string]*Relation, len(schema)),
		work:     make(map[string]*Relation),
		versions: make(map[string]uint64, len(schema)),
	}
	for name, a := range schema {
		w.sealed[name] = NewRelation(a)
	}
	w.cur.Store(w.snapshot())
	return w
}

// EpochFromStore loads every tuple of src into a new epoch writer
// over src's schema (relations in name order, tuples in insertion
// order, like CopyStore) and publishes the result as epoch 1.
func EpochFromStore(src ReadStore) *Epoch {
	w := NewEpoch(src.Schema())
	CopyStore(w, src)
	w.Publish()
	return w
}

// Schema implements Store.
func (w *Epoch) Schema() Schema { return w.schema }

// Mutable returns this epoch's private working copy of the named
// relation, cloning the sealed base on the first write of the epoch
// (copy-on-write). The returned relation is the writer's to mutate
// until the next Publish seals it; no published snapshot can reach
// it. It panics when name is not in the schema.
func (w *Epoch) Mutable(name string) *Relation {
	if r, ok := w.work[name]; ok {
		return r
	}
	base, ok := w.sealed[name]
	if !ok {
		panic(fmt.Sprintf("rel: relation %q not in schema", name))
	}
	var r *Relation
	if base.Len() == 0 {
		r = NewRelation(base.Arity())
	} else {
		r = base.Clone()
	}
	w.work[name] = r
	return r
}

// Add implements Store: the write lands in the epoch's private
// working copy, never in a published snapshot.
func (w *Epoch) Add(name string, t Tuple) bool { return w.Mutable(name).Add(t) }

// AddInts inserts a tuple of integers into the named relation.
func (w *Epoch) AddInts(name string, ns ...int64) bool { return w.Add(name, Ints(ns...)) }

// AddStrs inserts a tuple of strings into the named relation.
func (w *Epoch) AddStrs(name string, ss ...string) bool { return w.Add(name, Strs(ss...)) }

// Reserve implements Reserver on the working copy.
func (w *Epoch) Reserve(name string, n int) { w.Mutable(name).Reserve(n) }

// View implements Store: the writer reads its own uncommitted state —
// the working copy when the relation was written this epoch, the
// sealed base otherwise. Readers wanting published state use
// Snapshot().View instead.
func (w *Epoch) View(name string) StoredRel { return w.Rel(name) }

// Rel returns the relation the writer currently sees for name: the
// epoch's working copy if the relation was written, else the sealed
// base (read-only in that case). It panics when name is not in the
// schema.
func (w *Epoch) Rel(name string) *Relation {
	if r, ok := w.work[name]; ok {
		return r
	}
	r, ok := w.sealed[name]
	if !ok {
		panic(fmt.Sprintf("rel: relation %q not in schema", name))
	}
	return r
}

// Size implements Store, over the writer's view.
func (w *Epoch) Size() int {
	n := 0
	for name := range w.schema {
		n += w.Rel(name).Len()
	}
	return n
}

// Dirty reports whether the named relation has been written this
// epoch (since the last Publish).
func (w *Epoch) Dirty(name string) bool {
	_, ok := w.work[name]
	return ok
}

// Publish seals this epoch's working copies, bumps their relations'
// versions and the epoch number, and atomically publishes the new
// snapshot. With no writes since the last Publish it still advances
// the epoch (publishing is how lockstep coordination across sharded
// writers is expressed) at O(#relations) cost, sharing every sealed
// relation with the previous snapshot.
func (w *Epoch) Publish() *Snapshot {
	for name, r := range w.work {
		w.sealed[name] = r
		w.versions[name]++
		delete(w.work, name)
	}
	w.epoch++
	snap := w.snapshot()
	w.cur.Store(snap)
	return snap
}

// Snapshot returns the most recently published snapshot. It is the
// one Epoch method safe to call from any goroutine: one atomic load,
// no locks, never nil.
func (w *Epoch) Snapshot() *Snapshot { return w.cur.Load() }

// snapshot assembles the immutable snapshot of the current sealed
// state: fresh maps (the writer will keep mutating its own), shared
// relation pointers (the data is frozen).
func (w *Epoch) snapshot() *Snapshot {
	rels := make(map[string]*Relation, len(w.sealed))
	for name, r := range w.sealed {
		rels[name] = r
	}
	versions := make(map[string]uint64, len(w.versions))
	for name, v := range w.versions {
		versions[name] = v
	}
	return &Snapshot{schema: w.schema, epoch: w.epoch, rels: rels, versions: versions}
}
