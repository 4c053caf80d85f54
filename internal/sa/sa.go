// Package sa implements the semijoin algebra of Definition 2: the
// variant of the relational algebra in which the join operator
// E1 ⋈θ E2 is replaced by the semijoin E1 ⋉θ E2, which keeps the
// left tuples that have at least one θ-partner on the right.
//
// Semijoin algebra expressions are linear by definition — every
// intermediate result is a subset of a projection/selection image of a
// single input relation's tuples — and SA= (equality-only semijoin
// conditions) captures exactly the linear fragment of RA
// (Theorem 18 / Corollary 19 of the paper).
package sa

import (
	"fmt"
	"strings"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// Expr is a semijoin algebra expression.
type Expr interface {
	// Arity returns the arity of results.
	Arity() int
	// Children returns immediate subexpressions.
	Children() []Expr
	// String renders the expression in the library's text syntax.
	String() string
}

// Rel is a relation name.
type Rel struct {
	Name  string
	arity int
}

// R constructs a relation-name expression.
func R(name string, arity int) *Rel { return &Rel{Name: name, arity: arity} }

// Arity implements Expr.
func (r *Rel) Arity() int { return r.arity }

// Children implements Expr.
func (r *Rel) Children() []Expr { return nil }

// String implements Expr.
func (r *Rel) String() string { return r.Name }

// Union is E1 ∪ E2.
type Union struct{ L, E Expr }

// NewUnion builds E1 ∪ E2, checking arities.
func NewUnion(l, r Expr) *Union {
	if l.Arity() != r.Arity() {
		panic(fmt.Sprintf("sa: union of arities %d and %d", l.Arity(), r.Arity()))
	}
	return &Union{l, r}
}

// Arity implements Expr.
func (u *Union) Arity() int { return u.L.Arity() }

// Children implements Expr.
func (u *Union) Children() []Expr { return []Expr{u.L, u.E} }

// String implements Expr.
func (u *Union) String() string { return fmt.Sprintf("union(%s, %s)", u.L, u.E) }

// Diff is E1 − E2.
type Diff struct{ L, E Expr }

// NewDiff builds E1 − E2, checking arities.
func NewDiff(l, r Expr) *Diff {
	if l.Arity() != r.Arity() {
		panic(fmt.Sprintf("sa: difference of arities %d and %d", l.Arity(), r.Arity()))
	}
	return &Diff{l, r}
}

// Arity implements Expr.
func (d *Diff) Arity() int { return d.L.Arity() }

// Children implements Expr.
func (d *Diff) Children() []Expr { return []Expr{d.L, d.E} }

// String implements Expr.
func (d *Diff) String() string { return fmt.Sprintf("diff(%s, %s)", d.L, d.E) }

// Project is π_{i1..ik}(E).
type Project struct {
	Cols []int
	E    Expr
}

// NewProject builds the projection, checking index ranges.
func NewProject(cols []int, e Expr) *Project {
	for _, c := range cols {
		if c < 1 || c > e.Arity() {
			panic(fmt.Sprintf("sa: projection index %d out of range 1..%d", c, e.Arity()))
		}
	}
	return &Project{Cols: append([]int(nil), cols...), E: e}
}

// Arity implements Expr.
func (p *Project) Arity() int { return len(p.Cols) }

// Children implements Expr.
func (p *Project) Children() []Expr { return []Expr{p.E} }

// String implements Expr.
func (p *Project) String() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		parts[i] = fmt.Sprint(c)
	}
	return fmt.Sprintf("project[%s](%s)", strings.Join(parts, ","), p.E)
}

// Select is σ_{i op j}(E).
type Select struct {
	I  int
	Op ra.Op
	J  int
	E  Expr
}

// NewSelect builds the selection, checking ranges.
func NewSelect(i int, op ra.Op, j int, e Expr) *Select {
	if i < 1 || i > e.Arity() || j < 1 || j > e.Arity() {
		panic(fmt.Sprintf("sa: selection σ%d%s%d on arity %d", i, op, j, e.Arity()))
	}
	return &Select{I: i, Op: op, J: j, E: e}
}

// Arity implements Expr.
func (s *Select) Arity() int { return s.E.Arity() }

// Children implements Expr.
func (s *Select) Children() []Expr { return []Expr{s.E} }

// String implements Expr.
func (s *Select) String() string {
	return fmt.Sprintf("select[%d%s%d](%s)", s.I, s.Op, s.J, s.E)
}

// SelectConst is σ_{i=c}(E), derived but first-class for convenience.
type SelectConst struct {
	I int
	C rel.Value
	E Expr
}

// NewSelectConst builds σ_{i=c}(E).
func NewSelectConst(i int, c rel.Value, e Expr) *SelectConst {
	if i < 1 || i > e.Arity() {
		panic(fmt.Sprintf("sa: selection σ%d='%v' on arity %d", i, c, e.Arity()))
	}
	return &SelectConst{I: i, C: c, E: e}
}

// Arity implements Expr.
func (s *SelectConst) Arity() int { return s.E.Arity() }

// Children implements Expr.
func (s *SelectConst) Children() []Expr { return []Expr{s.E} }

// String implements Expr.
func (s *SelectConst) String() string {
	return fmt.Sprintf("selectc[%d='%v'](%s)", s.I, s.C, s.E)
}

// ConstTag is τ_c(E).
type ConstTag struct {
	C rel.Value
	E Expr
}

// NewConstTag builds τ_c(E).
func NewConstTag(c rel.Value, e Expr) *ConstTag { return &ConstTag{C: c, E: e} }

// Arity implements Expr.
func (t *ConstTag) Arity() int { return t.E.Arity() + 1 }

// Children implements Expr.
func (t *ConstTag) Children() []Expr { return []Expr{t.E} }

// String implements Expr.
func (t *ConstTag) String() string { return fmt.Sprintf("tag['%v'](%s)", t.C, t.E) }

// Semijoin is E1 ⋉θ E2 (Definition 2): the tuples of E1 that have a
// θ-partner in E2. The arity is that of E1.
type Semijoin struct {
	L, E Expr
	Cond ra.Cond
}

// NewSemijoin builds E1 ⋉θ E2, validating the condition.
func NewSemijoin(l Expr, c ra.Cond, r Expr) *Semijoin {
	if err := validateCond(c, l, r); err != nil {
		panic("sa: " + err.Error())
	}
	return &Semijoin{L: l, E: r, Cond: append(ra.Cond(nil), c...)}
}

// Arity implements Expr.
func (s *Semijoin) Arity() int { return s.L.Arity() }

// Children implements Expr.
func (s *Semijoin) Children() []Expr { return []Expr{s.L, s.E} }

// String implements Expr.
func (s *Semijoin) String() string {
	return fmt.Sprintf("semijoin[%s](%s, %s)", s.Cond, s.L, s.E)
}

// Antijoin is the derived operator E1 ▷θ E2 = E1 − (E1 ⋉θ E2): the
// tuples of E1 with no θ-partner in E2. First-class because the
// GF → SA= translation and many practical plans use it pervasively.
type Antijoin struct {
	L, E Expr
	Cond ra.Cond
}

// NewAntijoin builds E1 ▷θ E2, validating the condition.
func NewAntijoin(l Expr, c ra.Cond, r Expr) *Antijoin {
	if err := validateCond(c, l, r); err != nil {
		panic("sa: " + err.Error())
	}
	return &Antijoin{L: l, E: r, Cond: append(ra.Cond(nil), c...)}
}

// Arity implements Expr.
func (s *Antijoin) Arity() int { return s.L.Arity() }

// Children implements Expr.
func (s *Antijoin) Children() []Expr { return []Expr{s.L, s.E} }

// String implements Expr.
func (s *Antijoin) String() string {
	return fmt.Sprintf("antijoin[%s](%s, %s)", s.Cond, s.L, s.E)
}

// Walk visits e and all subexpressions in preorder.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	for _, c := range e.Children() {
		Walk(c, visit)
	}
}

// IsEquiOnly reports whether every semijoin (and antijoin) condition
// uses only equality atoms — i.e. whether e belongs to SA=.
func IsEquiOnly(e Expr) bool {
	ok := true
	Walk(e, func(x Expr) {
		switch n := x.(type) {
		case *Semijoin:
			if !n.Cond.IsEquiOnly() {
				ok = false
			}
		case *Antijoin:
			if !n.Cond.IsEquiOnly() {
				ok = false
			}
		}
	})
	return ok
}

// Constants returns the constants used in the expression, sorted.
func Constants(e Expr) rel.ConstSet {
	var vs []rel.Value
	Walk(e, func(x Expr) {
		switch n := x.(type) {
		case *ConstTag:
			vs = append(vs, n.C)
		case *SelectConst:
			vs = append(vs, n.C)
		}
	})
	return rel.Consts(vs...)
}
