package setjoin

import (
	"math/rand"
	"testing"

	"radiv/internal/rel"
)

// TestPSJAgreesWithReference: PSJ computes the same containment join
// as the oracle under varied partition counts.
func TestPSJAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, parts := range []int{1, 2, 7, 64, 0 /* default */} {
		alg := PartitionedContainment{Partitions: parts}
		for trial := 0; trial < 25; trial++ {
			r := randomGroups(rng, 1+rng.Intn(10), 8, 5)
			s := randomGroups(rng, 1+rng.Intn(10), 8, 4)
			want := Reference(r, s, Containment)
			got, _ := alg.Join(r, s)
			if !got.Equal(want) {
				t.Fatalf("P=%d trial %d: PSJ disagrees\ngot %vwant %v", parts, trial, got, want)
			}
		}
	}
}

// TestPSJFigure1 reproduces Fig. 1 through PSJ too.
func TestPSJFigure1(t *testing.T) {
	person, disease := fig1Groups()
	got, _ := PartitionedContainment{}.Join(person, disease)
	want := rel.FromTuples(2,
		rel.Strs("An", "flu"), rel.Strs("Bob", "flu"), rel.Strs("Bob", "Lyme"))
	if !got.Equal(want) {
		t.Errorf("PSJ on Fig. 1 = %v", got)
	}
}

// TestPSJPartitioningPrunes: with enough partitions PSJ considers far
// fewer pairs than the nested loop on a sparse workload.
func TestPSJPartitioningPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := randomGroups(rng, 150, 3000, 5)
	s := randomGroups(rng, 150, 3000, 5)
	_, psj := PartitionedContainment{Partitions: 128}.Join(r, s)
	_, nl := NestedLoopContainment{}.Join(r, s)
	if psj.PairsConsidered*3 > nl.PairsConsidered {
		t.Errorf("PSJ considered %d pairs, nested loop %d — partitioning not pruning",
			psj.PairsConsidered, nl.PairsConsidered)
	}
}

// TestPSJSinglePartitionEqualsSignature: with P = 1 every R-group is
// in the probe partition, so PSJ degenerates to the signature join.
func TestPSJSinglePartitionEqualsSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	r := randomGroups(rng, 40, 30, 4)
	s := randomGroups(rng, 40, 30, 4)
	a, _ := PartitionedContainment{Partitions: 1}.Join(r, s)
	b, _ := SignatureContainment{}.Join(r, s)
	if !a.Equal(b) {
		t.Error("P=1 PSJ differs from signature join")
	}
}
