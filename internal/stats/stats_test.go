package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGrowthExponentExact(t *testing.T) {
	cases := []struct {
		p float64
	}{{1}, {2}, {1.5}, {0.5}}
	for _, c := range cases {
		var xs, ys []float64
		for _, x := range []float64{8, 16, 32, 64, 128} {
			xs = append(xs, x)
			ys = append(ys, 3*math.Pow(x, c.p))
		}
		got := GrowthExponent(xs, ys)
		if math.Abs(got-c.p) > 1e-9 {
			t.Errorf("exponent = %v, want %v", got, c.p)
		}
	}
}

func TestGrowthExponentDegenerate(t *testing.T) {
	if GrowthExponent(nil, nil) != 0 {
		t.Error("empty series")
	}
	if GrowthExponent([]float64{1}, []float64{2}) != 0 {
		t.Error("single point")
	}
	if GrowthExponent([]float64{0, -1}, []float64{1, 1}) != 0 {
		t.Error("non-positive points should be skipped")
	}
	if GrowthExponent([]float64{4, 4, 4}, []float64{1, 2, 3}) != 0 {
		t.Error("constant x should yield 0, not NaN")
	}
}

func TestGrowthExponentMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths should panic")
		}
	}()
	GrowthExponent([]float64{1}, []float64{1, 2})
}

// Property: scaling y by a constant does not change the exponent.
func TestGrowthExponentScaleInvariant(t *testing.T) {
	f := func(scale uint8) bool {
		c := float64(scale%50) + 1
		xs := []float64{10, 20, 40, 80}
		var y1, y2 []float64
		for _, x := range xs {
			y1 = append(y1, x*x)
			y2 = append(y2, c*x*x)
		}
		return math.Abs(GrowthExponent(xs, y1)-GrowthExponent(xs, y2)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("algo", "n", "time")
	tb.AddRow("hash", 100, 1.5)
	tb.AddRow("nested-loop", 100, 123.456)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "algo") || !strings.Contains(lines[3], "123.46") {
		t.Errorf("table content wrong:\n%s", out)
	}
	// Alignment: all lines at least as wide as the widest cell row.
	if len(lines[2]) < len("nested-loop") {
		t.Error("column not padded")
	}
}
