package shard_test

import (
	"bytes"
	"strings"
	"testing"

	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/workload"
)

// TestTextRoundTripThroughShards is the satellite acceptance test for
// the text codec over the storage interface: read a database, load it
// into N shards, write the sharded store back out, re-read, and
// compare with the single-store database — at every shard count, the
// round trip must be lossless and the two serializations identical.
func TestTextRoundTripThroughShards(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := workload.RandomDivision(seed).Database()
		var single bytes.Buffer
		if err := rel.WriteText(&single, d); err != nil {
			t.Fatalf("seed %d: write single: %v", seed, err)
		}
		for _, n := range shardCounts {
			// Read into N shards…
			reread, err := rel.ReadText(strings.NewReader(single.String()))
			if err != nil {
				t.Fatalf("seed %d: reread: %v", seed, err)
			}
			s := shard.FromStore(reread, n)
			if !s.Equal(d) {
				t.Fatalf("seed %d shards %d: sharded load diverges from source", seed, n)
			}
			// …write the sharded store…
			var sharded bytes.Buffer
			if err := rel.WriteText(&sharded, s); err != nil {
				t.Fatalf("seed %d shards %d: write sharded: %v", seed, n, err)
			}
			if sharded.String() != single.String() {
				t.Fatalf("seed %d shards %d: serializations differ", seed, n)
			}
			// …and re-read into a fresh database: Equal with the original.
			back, err := rel.ReadText(strings.NewReader(sharded.String()))
			if err != nil {
				t.Fatalf("seed %d shards %d: read back: %v", seed, n, err)
			}
			if !back.Equal(d) || !rel.StoresEqual(back, s) {
				t.Fatalf("seed %d shards %d: round trip lost data", seed, n)
			}
		}
	}
}

// TestTextRoundTripStringsThroughShards covers the string-valued path
// (routing hashes string interner IDs too) and the two arity-0
// relations {} and {()} with a hand-built store.
func TestTextRoundTripStringsThroughShards(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"Likes": 2, "Empty": 1, "False": 0, "True": 0}))
	d.AddStrs("Likes", "alex", "ale")
	d.AddStrs("Likes", "alex", "stout")
	d.AddStrs("Likes", "sam", "ale")
	d.Add("True", rel.Tuple{})
	for _, n := range shardCounts {
		s := shard.FromStore(d, n)
		var buf bytes.Buffer
		if err := rel.WriteText(&buf, s); err != nil {
			t.Fatalf("shards %d: write: %v", n, err)
		}
		back, err := rel.ReadText(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("shards %d: read: %v", n, err)
		}
		if !back.Equal(d) || back.Rel("True").Len() != 1 || back.Rel("False").Len() != 0 {
			t.Fatalf("shards %d: string round trip lost data", n)
		}
	}
}
