package parser

import (
	"testing"

	"radiv/internal/gf"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
)

func testSchema() rel.Schema {
	return rel.NewSchema(map[string]int{
		"R": 2, "S": 1, "T": 2, "Likes": 2, "Serves": 2, "Visits": 2,
	})
}

func TestParseRABasic(t *testing.T) {
	schema := testSchema()
	cases := []string{
		"R",
		"union(R, T)",
		"diff(R, T)",
		"project[1](R)",
		"project[2,1](R)",
		"project[](R)",
		"select[1=2](R)",
		"select[1<2](R)",
		"select[1!=2](R)",
		"select[1>2](R)",
		"selectc[1='5'](R)",
		"selectc[1='abc'](R)",
		"tag['9'](S)",
		"join[2=1](R, S)",
		"join[true](R, S)",
		"join[1=1,2<2](R, T)",
	}
	for _, src := range cases {
		e, err := ParseRA(src, schema)
		if err != nil {
			t.Errorf("ParseRA(%q): %v", src, err)
			continue
		}
		if e == nil {
			t.Errorf("ParseRA(%q) returned nil", src)
		}
	}
}

// TestParseRARoundTrip: String() output parses back to an expression
// with the same rendering.
func TestParseRARoundTrip(t *testing.T) {
	schema := testSchema()
	exprs := []ra.Expr{
		ra.DivisionExpr("R", "S"),
		ra.SetContainmentJoinExpr("R", "T"),
		ra.EquiSemijoinExpr(ra.R("R", 2), ra.Eq(2, 1), ra.R("S", 1)),
		ra.NewSelectConst(1, rel.Str("x y"), ra.R("R", 2)),
		ra.NewConstTag(rel.Int(-3), ra.R("S", 1)),
		ra.NewJoin(ra.R("R", 2), ra.Eq(1, 1).And(ra.A(2, ra.OpNe, 2), ra.A(2, ra.OpGt, 1)), ra.R("T", 2)),
	}
	for _, e := range exprs {
		src := e.String()
		back, err := ParseRA(src, schema)
		if err != nil {
			t.Errorf("round trip parse of %q: %v", src, err)
			continue
		}
		if back.String() != src {
			t.Errorf("round trip changed rendering:\n in: %s\nout: %s", src, back.String())
		}
	}
}

func TestParseSARoundTrip(t *testing.T) {
	schema := testSchema()
	exprs := []sa.Expr{
		sa.LousyBarExpr(),
		sa.NewAntijoin(sa.R("Likes", 2), ra.Eq(2, 2), sa.R("Serves", 2)),
		sa.NewSemijoin(sa.R("R", 2), ra.Lt(1, 1), sa.R("S", 1)),
	}
	for _, e := range exprs {
		src := e.String()
		back, err := ParseSA(src, schema)
		if err != nil {
			t.Errorf("round trip parse of %q: %v", src, err)
			continue
		}
		if back.String() != src {
			t.Errorf("round trip changed rendering:\n in: %s\nout: %s", src, back.String())
		}
	}
}

func TestParseEvaluates(t *testing.T) {
	schema := testSchema()
	d := rel.NewDatabase(schema)
	d.AddInts("R", 1, 10)
	d.AddInts("R", 1, 20)
	d.AddInts("R", 2, 10)
	d.AddInts("S", 10)
	d.AddInts("S", 20)
	e, err := ParseRA("diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))", schema)
	if err != nil {
		t.Fatal(err)
	}
	got := ra.Eval(e, d)
	if got.Len() != 1 || !got.Contains(rel.Ints(1)) {
		t.Errorf("parsed division = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	schema := testSchema()
	raCases := []string{
		"",
		"Unknown",
		"union(R)",
		"union(R, S)",          // arity mismatch
		"project[3](R)",        // out of range
		"select[1=]R",          // bad selector
		"semijoin[1=1](R, S)",  // SA operator
		"join[1=1](R, S) junk", // trailing
		"selectc[1=5](R)",      // unquoted constant
		"tag[5](S)",            // unquoted constant
		"join[3=1](R, S)",      // bad condition index
	}
	for _, src := range raCases {
		if _, err := ParseRA(src, schema); err == nil {
			t.Errorf("ParseRA(%q) should fail", src)
		}
	}
	saCases := []string{
		"join[1=1](R, S)",
		"semijoin[5=1](R, S)",
		"semijoin[1=1](R",
		"semijoin[true](R, S)", // Definition 2: at least one atom
		"antijoin[true](R, S)",
	}
	for _, src := range saCases {
		if _, err := ParseSA(src, schema); err == nil {
			t.Errorf("ParseSA(%q) should fail", src)
		}
	}
}

func TestParseGFBasic(t *testing.T) {
	cases := []string{
		"x = y",
		"x < y",
		"x = '5'",
		"Likes(x, y)",
		"!(Likes(x, y))",
		"!Likes(x, y)",
		"(Likes(x, y) & Serves(x, y))",
		"(Likes(x, y) | Serves(x, y))",
		"(Likes(x, y) -> Serves(x, y))",
		"(Likes(x, y) <-> Serves(x, y))",
		"exists y (Visits(x, y) & y = y)",
		"exists y,z (R(y, z) & y < z)",
	}
	for _, src := range cases {
		f, err := ParseGF(src)
		if err != nil {
			t.Errorf("ParseGF(%q): %v", src, err)
			continue
		}
		if f == nil {
			t.Errorf("ParseGF(%q) returned nil", src)
		}
	}
}

// TestParseGFRoundTrip: the String rendering of gf formulas parses
// back identically.
func TestParseGFRoundTrip(t *testing.T) {
	formulas := []gf.Formula{
		gf.LousyBarFormula(),
		gf.Iff{L: gf.Eq{X: "x", Y: "y"}, R: gf.Lt{X: "x", Y: "y"}},
		gf.Implies{L: gf.NewAtom("Likes", "x", "y"), R: gf.Or{L: gf.Eq{X: "x", Y: "y"}, R: gf.EqConst{X: "x", C: rel.Int(7)}}},
		gf.NewExists([]gf.Var{"y", "z"}, gf.NewAtom("R", "x", "y"), gf.Eq{X: "y", Y: "y"}),
	}
	for _, f := range formulas {
		src := f.String()
		back, err := ParseGF(src)
		if err != nil {
			t.Errorf("round trip parse of %q: %v", src, err)
			continue
		}
		if back.String() != src {
			t.Errorf("round trip changed rendering:\n in: %s\nout: %s", src, back.String())
		}
	}
}

func TestParseGFEvaluates(t *testing.T) {
	f, err := ParseGF("exists y (Visits(x, y) & !exists z (Serves(y, z) & exists w (Likes(w, z) & w = w)))")
	if err != nil {
		t.Fatal(err)
	}
	d := rel.NewDatabase(testSchema())
	d.AddStrs("Likes", "alex", "westmalle")
	d.AddStrs("Serves", "pareto", "westmalle")
	d.AddStrs("Serves", "qwerty", "stella")
	d.AddStrs("Visits", "alex", "pareto")
	d.AddStrs("Visits", "bart", "qwerty")
	ans := gf.Answers(f, d, rel.Consts(), []gf.Var{"x"})
	if !ans.Contains(rel.Strs("bart")) || ans.Contains(rel.Strs("alex")) {
		t.Errorf("parsed lousy-bar formula answers = %v", ans)
	}
}

func TestParseGFErrors(t *testing.T) {
	cases := []string{
		"",
		"exists (R(x) & x = x)",
		"exists y (y = y & R(y))", // guard must be an atom
		"R(x,)",
		"x =",
		"x < '5'",   // constants only in equality
		"(x = y",    // unbalanced
		"x = y etc", // trailing
	}
	for _, src := range cases {
		if _, err := ParseGF(src); err == nil {
			t.Errorf("ParseGF(%q) should fail", src)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated quote accepted")
	}
	if _, err := lex("a # b"); err == nil {
		t.Error("stray character accepted")
	}
}

func TestLexerNegativeNumbers(t *testing.T) {
	toks, err := lex("-12 x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokInt || toks[0].text != "-12" {
		t.Errorf("negative int: %+v", toks[0])
	}
	// A bare minus is not a token.
	if _, err := lex("- y"); err == nil {
		t.Error("bare '-' accepted")
	}
}
