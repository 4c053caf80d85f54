package rel

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func testSchema() Schema {
	return NewSchema(map[string]int{"R": 3, "S": 3, "T": 2})
}

// fig2Database is the database of Fig. 2 in the paper, used to
// illustrate C-stored tuples (Example 5). Values are strings a..g.
func fig2Database() *Database {
	d := NewDatabase(testSchema())
	d.AddStrs("R", "a", "b", "c")
	d.AddStrs("R", "d", "e", "f")
	d.AddStrs("S", "d", "a", "b")
	d.AddStrs("T", "e", "a")
	d.AddStrs("T", "f", "c")
	return d
}

func TestDatabaseSizeAndRels(t *testing.T) {
	d := fig2Database()
	if d.Size() != 5 {
		t.Errorf("Size = %d, want 5", d.Size())
	}
	if d.Rel("R").Len() != 2 || d.Rel("T").Len() != 2 {
		t.Error("relation lens wrong")
	}
}

func TestDatabaseUnknownRelationPanics(t *testing.T) {
	d := fig2Database()
	defer func() {
		if recover() == nil {
			t.Error("unknown relation should panic")
		}
	}()
	d.Rel("Nope")
}

func TestDatabaseCloneEqual(t *testing.T) {
	d := fig2Database()
	c := d.Clone()
	if !d.Equal(c) {
		t.Error("clone unequal")
	}
	c.AddStrs("T", "x", "y")
	if d.Equal(c) {
		t.Error("clone shares state")
	}
}

func TestDatabaseTupleSpace(t *testing.T) {
	d := fig2Database()
	ts := d.TupleSpace()
	if len(ts) != 5 {
		t.Fatalf("TupleSpace len = %d", len(ts))
	}
	// Names iterate in sorted order R, S, T.
	if ts[0].Rel != "R" || ts[4].Rel != "T" {
		t.Errorf("TupleSpace order wrong: %v", ts)
	}
}

func TestDatabaseActiveDomainAndGuardedSets(t *testing.T) {
	d := fig2Database()
	ad := d.ActiveDomain()
	if len(ad) != 7 { // a..g minus g = a,b,c,d,e,f + nothing else = 6? a,b,c,d,e,f
		// values: a,b,c,d,e,f — recompute
	}
	want := []string{"a", "b", "c", "d", "e", "f"}
	if len(ad) != len(want) {
		t.Fatalf("ActiveDomain = %v", ad)
	}
	for i, s := range want {
		if !ad[i].Equal(Str(s)) {
			t.Errorf("ActiveDomain[%d] = %v, want %s", i, ad[i], s)
		}
	}
	gs := d.GuardedSets()
	if len(gs) != 5 {
		t.Errorf("GuardedSets len = %d, want 5", len(gs))
	}
}

// TestFigure2CStored reproduces Example 5 of the paper on the Fig. 2
// database: with C = {a}, the tuples (b,c) and (a,f) are C-stored
// while (e,c) and (g) are not.
func TestFigure2CStored(t *testing.T) {
	d := fig2Database()
	c := Consts(Str("a"))
	if !IsCStored(d, c, Strs("b", "c")) {
		t.Error("(b,c) should be C-stored: it is in π2,3(R)")
	}
	if !IsCStored(d, c, Strs("a", "f")) {
		t.Error("(a,f) should be C-stored: stripping a leaves (f) ∈ π1(T)... π3(R)")
	}
	if IsCStored(d, c, Strs("e", "c")) {
		t.Error("(e,c) should not be C-stored")
	}
	if IsCStored(d, c, Strs("g")) {
		t.Error("(g) should not be C-stored")
	}
}

func TestCStoredEmptyStrip(t *testing.T) {
	d := fig2Database()
	c := Consts(Str("a"))
	// A tuple entirely of constants is C-stored when the database is
	// nonempty.
	if !IsCStored(d, c, Strs("a", "a")) {
		t.Error("(a,a) strips to () which is in the empty projection")
	}
	empty := NewDatabase(testSchema())
	if IsCStored(empty, c, Strs("a")) {
		t.Error("nothing is C-stored in an empty database")
	}
}

func TestCStoredTuplesEnumeration(t *testing.T) {
	d := fig2Database()
	c := Consts(Str("a"))
	for _, k := range []int{0, 1, 2} {
		all := CStoredTuples(d, c, k)
		seen := make(map[string]bool)
		for _, tup := range all {
			if len(tup) != k {
				t.Fatalf("arity %d tuple in CStoredTuples(%d)", len(tup), k)
			}
			if seen[tup.Key()] {
				t.Fatalf("duplicate tuple %v", tup)
			}
			seen[tup.Key()] = true
			if !IsCStored(d, c, tup) {
				t.Errorf("enumerated tuple %v is not C-stored", tup)
			}
		}
	}
	// Cross-check: every C-stored pair over the active domain ∪ C is
	// enumerated.
	all2 := CStoredTuples(d, c, 2)
	index := make(map[string]bool)
	for _, tup := range all2 {
		index[tup.Key()] = true
	}
	dom := append(d.ActiveDomain(), Str("a"))
	for _, x := range dom {
		for _, y := range dom {
			tup := T(x, y)
			if IsCStored(d, c, tup) && !index[tup.Key()] {
				t.Errorf("C-stored tuple %v missing from enumeration", tup)
			}
		}
	}
}

func TestConstSet(t *testing.T) {
	c := Consts(Int(5), Int(2), Int(5))
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if !c.Contains(Int(2)) || !c.Contains(Int(5)) || c.Contains(Int(3)) {
		t.Error("Contains broken")
	}
	u := c.Union(IntConsts(3))
	if u.Len() != 3 || !u.Contains(Int(3)) {
		t.Error("Union broken")
	}
	stripped := c.StripC(Ints(1, 2, 3, 5, 5))
	if !stripped.Equal(Ints(1, 3)) {
		t.Errorf("StripC = %v", stripped)
	}
}

func TestTextRoundTrip(t *testing.T) {
	d := fig2Database()
	// The two arity-0 relations: {} and {()}.
	d.Schema()["False"], d.Schema()["True"] = 0, 0
	d.Add("True", T())
	var buf bytes.Buffer
	if err := WriteText(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", d, got)
	}
	if got.Rel("False").Len() != 0 || got.Rel("True").Len() != 1 {
		t.Errorf("arity-0 relations came back as False=%d True=%d tuples", got.Rel("False").Len(), got.Rel("True").Len())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"@R x",          // bad declaration
		"@R 2\nR 1,2,3", // arity mismatch
		"justonetoken",  // no tuple
		"@R 2\n@R 3",    // redeclaration
		"@S 1\n@R -1",   // negative arity
		"@R 2 junk",     // text after the arity
		"@T 0\nT\nU",    // bare name of an undeclared relation
		"@R 2\nR",       // bare name of a relation that has columns
		// A declared arity no tuple line backs must not size anything.
		"@R 999999999999999999\nR 1",
		"@R 300000000\nR 1",
	}
	for _, c := range cases {
		_, err := ReadText(strings.NewReader(c))
		if err == nil {
			t.Errorf("ReadText(%q) should fail", c)
		} else if want := fmt.Sprintf("line %d:", strings.Count(c, "\n")+1); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("ReadText(%q) = %v, want a %q error", c, err, want)
		}
	}
}

func TestReadTextImplicitDeclaration(t *testing.T) {
	d, err := ReadText(strings.NewReader("R 1,2\nR 3,4\nS a\n# comment\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rel("R").Len() != 2 || d.Rel("S").Len() != 1 {
		t.Errorf("implicit declarations broken: %s", d)
	}
	if !d.Rel("S").Contains(T(Str("a"))) {
		t.Error("string value lost")
	}
}
