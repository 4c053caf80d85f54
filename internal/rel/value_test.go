package rel

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestValueOrderWithinInts(t *testing.T) {
	if !Int(1).Less(Int(2)) {
		t.Error("1 < 2 expected")
	}
	if Int(2).Less(Int(2)) {
		t.Error("2 < 2 unexpected")
	}
	if Int(3).Less(Int(2)) {
		t.Error("3 < 2 unexpected")
	}
	if Int(-5).Cmp(Int(5)) != -1 {
		t.Error("-5 should compare below 5")
	}
}

func TestValueOrderWithinStrings(t *testing.T) {
	if !Str("a").Less(Str("b")) {
		t.Error("a < b expected")
	}
	if !Str("a").Less(Str("a'")) {
		t.Error("a < a' expected (prefix extension sorts after)")
	}
	if !Str("a'").Less(Str("b")) {
		t.Error("a' < b expected")
	}
}

func TestValueOrderAcrossKinds(t *testing.T) {
	if !Int(1 << 60).Less(Str("")) {
		t.Error("every int sorts below every string")
	}
	if Str("x").Less(Int(0)) {
		t.Error("strings never sort below ints")
	}
}

func TestValueEqualityAndKind(t *testing.T) {
	if !Int(7).Equal(Int(7)) || Int(7).Equal(Int(8)) {
		t.Error("int equality broken")
	}
	if Int(7).Equal(Str("7")) {
		t.Error("int 7 must differ from string \"7\"")
	}
	if Int(3).Kind() != KindInt || Str("x").Kind() != KindString {
		t.Error("Kind mismatch")
	}
	if Int(3).AsInt() != 3 || Str("x").AsString() != "x" {
		t.Error("payload accessors broken")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AsInt on string should panic")
		}
	}()
	Str("x").AsInt()
}

func TestParseValue(t *testing.T) {
	if v := ParseValue("42"); !v.Equal(Int(42)) {
		t.Errorf("ParseValue(42) = %v", v)
	}
	if v := ParseValue("-7"); !v.Equal(Int(-7)) {
		t.Errorf("ParseValue(-7) = %v", v)
	}
	if v := ParseValue("abc"); !v.Equal(Str("abc")) {
		t.Errorf("ParseValue(abc) = %v", v)
	}
	if v := ParseValue("4x"); !v.Equal(Str("4x")) {
		t.Errorf("ParseValue(4x) = %v", v)
	}
}

func TestValueStringRendering(t *testing.T) {
	if Int(-3).String() != "-3" {
		t.Errorf("Int(-3).String() = %q", Int(-3).String())
	}
	if Str("hi").String() != "hi" {
		t.Errorf("Str(hi).String() = %q", Str("hi").String())
	}
}

// Property: Cmp is a total order — antisymmetric, transitive, and
// consistent with Equal.
func TestValueCmpIsTotalOrderProperty(t *testing.T) {
	gen := func(n int64, s string, isInt bool) Value {
		if isInt {
			return Int(n)
		}
		return Str(s)
	}
	anti := func(an int64, as string, ai bool, bn int64, bs string, bi bool) bool {
		a, b := gen(an, as, ai), gen(bn, bs, bi)
		return a.Cmp(b) == -b.Cmp(a)
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	consistent := func(an int64, as string, ai bool) bool {
		a := gen(an, as, ai)
		return a.Cmp(a) == 0 && a.Equal(a)
	}
	if err := quick.Check(consistent, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
}

// Property: sorting values by Less yields a sequence where appendKey
// encodings of equal values coincide and of distinct values differ.
func TestValueKeyInjectiveProperty(t *testing.T) {
	f := func(an int64, as string, ai bool, bn int64, bs string, bi bool) bool {
		var a, b Value
		if ai {
			a = Int(an)
		} else {
			a = Str(as)
		}
		if bi {
			b = Int(bn)
		} else {
			b = Str(bs)
		}
		ka := string(a.appendKey(nil))
		kb := string(b.appendKey(nil))
		return (ka == kb) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueSortStability(t *testing.T) {
	vs := []Value{Str("b"), Int(10), Str("a"), Int(-1), Int(3)}
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
	want := []Value{Int(-1), Int(3), Int(10), Str("a"), Str("b")}
	for i := range vs {
		if !vs[i].Equal(want[i]) {
			t.Fatalf("sorted[%d] = %v, want %v", i, vs[i], want[i])
		}
	}
}
