package shard

import "radiv/internal/rel"

// RouterValues decodes the named relation's router: by gid, its
// first-column values in first-occurrence order. It is empty at one
// shard, where nothing is routed, and for a relation with no tuples.
func RouterValues(s *Snapshot, name string) []rel.Value {
	out := make([]rel.Value, len(s.routers[name]))
	for gid, id := range s.routers[name] {
		out[gid] = s.dict.Value(id)
	}
	return out
}
