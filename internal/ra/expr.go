// Package ra implements the relational algebra of Definition 1 of the
// paper: union, difference, projection, selection (σi=j and σi<j),
// constant-tagging τc, and θ-joins whose conditions are conjunctions of
// atoms i α j with α ∈ {=, ≠, <, >}. Cartesian product is the join
// with the empty condition.
//
// The evaluator is instrumented: it records the output cardinality of
// every subexpression, because the paper's complexity notions (linear
// and quadratic expressions, Definition 16) quantify over intermediate
// result sizes, not just the final output.
package ra

import (
	"fmt"
	"strings"

	"radiv/internal/rel"
)

// Op names a comparison operator usable in join conditions.
type Op uint8

const (
	// OpEq is '='.
	OpEq Op = iota
	// OpNe is '≠'.
	OpNe
	// OpLt is '<' (left strictly below right in the universe order).
	OpLt
	// OpGt is '>'.
	OpGt
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	}
	return fmt.Sprintf("op(%d)", o)
}

// Eval applies the comparison to two values.
func (o Op) Eval(a, b rel.Value) bool {
	switch o {
	case OpEq:
		return a.Equal(b)
	case OpNe:
		return !a.Equal(b)
	case OpLt:
		return a.Less(b)
	case OpGt:
		return b.Less(a)
	}
	panic("ra: unknown op")
}

// Atom is one conjunct "i α j" of a join condition θ: component i of
// the left operand compared to component j of the right operand, both
// 1-based.
type Atom struct {
	L  int
	Op Op
	R  int
}

// String renders the atom as in the paper, e.g. "2=1".
func (a Atom) String() string { return fmt.Sprintf("%d%s%d", a.L, a.Op, a.R) }

// Cond is a conjunction of atoms — the θ of a join or semijoin. The
// empty condition is always true (cartesian product).
type Cond []Atom

// A builds a single condition atom i op j.
func A(i int, op Op, j int) Atom { return Atom{L: i, Op: op, R: j} }

// Eq builds the single-atom equality condition i = j.
func Eq(i, j int) Cond { return Cond{A(i, OpEq, j)} }

// Ne builds the single-atom condition i ≠ j.
func Ne(i, j int) Cond { return Cond{A(i, OpNe, j)} }

// Lt builds the single-atom condition i < j.
func Lt(i, j int) Cond { return Cond{A(i, OpLt, j)} }

// Gt builds the single-atom condition i > j.
func Gt(i, j int) Cond { return Cond{A(i, OpGt, j)} }

// EqAll builds the conjunction i1=j1 ∧ i2=j2 ∧ ... from pairs.
func EqAll(pairs ...[2]int) Cond {
	c := make(Cond, len(pairs))
	for k, p := range pairs {
		c[k] = Atom{p[0], OpEq, p[1]}
	}
	return c
}

// And returns the conjunction of c and more atoms.
func (c Cond) And(atoms ...Atom) Cond {
	out := make(Cond, 0, len(c)+len(atoms))
	out = append(out, c...)
	out = append(out, atoms...)
	return out
}

// Holds evaluates the condition on a pair of tuples.
func (c Cond) Holds(a, b rel.Tuple) bool {
	for _, at := range c {
		if !at.Op.Eval(a[at.L-1], b[at.R-1]) {
			return false
		}
	}
	return true
}

// EqPairs returns θ^= as the list of (i, j) equality pairs
// (Definition 20 views θ^α as a set of pairs).
func (c Cond) EqPairs() [][2]int {
	var out [][2]int
	for _, at := range c {
		if at.Op == OpEq {
			out = append(out, [2]int{at.L, at.R})
		}
	}
	return out
}

// PairsOf returns θ^α as the list of (i, j) pairs for the operator α.
func (c Cond) PairsOf(op Op) [][2]int {
	var out [][2]int
	for _, at := range c {
		if at.Op == op {
			out = append(out, [2]int{at.L, at.R})
		}
	}
	return out
}

// IsEquiOnly reports whether every atom is an equality — i.e. whether a
// join with this condition is admissible in RA= / SA=.
func (c Cond) IsEquiOnly() bool {
	for _, at := range c {
		if at.Op != OpEq {
			return false
		}
	}
	return true
}

// Validate checks that all atom indices fall within the operand
// arities.
func (c Cond) Validate(leftArity, rightArity int) error {
	for _, at := range c {
		if at.L < 1 || at.L > leftArity {
			return fmt.Errorf("condition %v: left index out of range 1..%d", at, leftArity)
		}
		if at.R < 1 || at.R > rightArity {
			return fmt.Errorf("condition %v: right index out of range 1..%d", at, rightArity)
		}
	}
	return nil
}

// String renders the condition, e.g. "2=1,3<2"; the empty condition
// renders as "true".
func (c Cond) String() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, at := range c {
		parts[i] = at.String()
	}
	return strings.Join(parts, ",")
}

// Expr is a relational algebra expression. Expressions are immutable
// once built; Arity is computed at construction and Validate reports
// structural errors (index ranges, arity mismatches) eagerly.
type Expr interface {
	// Arity returns the arity of the expression's results.
	Arity() int
	// Children returns the immediate subexpressions.
	Children() []Expr
	// String renders the expression in the library's text syntax
	// (parsable by internal/parser).
	String() string
}

// Rel is a relation name (Definition 1(1)).
type Rel struct {
	Name  string
	arity int
}

// R constructs a relation-name expression of the given arity.
func R(name string, arity int) *Rel { return &Rel{Name: name, arity: arity} }

// Arity implements Expr.
func (r *Rel) Arity() int { return r.arity }

// Children implements Expr.
func (r *Rel) Children() []Expr { return nil }

// String implements Expr.
func (r *Rel) String() string { return r.Name }

// Union is E1 ∪ E2 (Definition 1(2)).
type Union struct{ L, E Expr }

// NewUnion builds E1 ∪ E2, checking arities.
func NewUnion(l, r Expr) *Union {
	if l.Arity() != r.Arity() {
		panic(fmt.Sprintf("ra: union of arities %d and %d", l.Arity(), r.Arity()))
	}
	return &Union{l, r}
}

// Arity implements Expr.
func (u *Union) Arity() int { return u.L.Arity() }

// Children implements Expr.
func (u *Union) Children() []Expr { return []Expr{u.L, u.E} }

// String implements Expr.
func (u *Union) String() string { return fmt.Sprintf("union(%s, %s)", u.L, u.E) }

// Diff is E1 − E2 (Definition 1(2)).
type Diff struct{ L, E Expr }

// NewDiff builds E1 − E2, checking arities.
func NewDiff(l, r Expr) *Diff {
	if l.Arity() != r.Arity() {
		panic(fmt.Sprintf("ra: difference of arities %d and %d", l.Arity(), r.Arity()))
	}
	return &Diff{l, r}
}

// Arity implements Expr.
func (d *Diff) Arity() int { return d.L.Arity() }

// Children implements Expr.
func (d *Diff) Children() []Expr { return []Expr{d.L, d.E} }

// String implements Expr.
func (d *Diff) String() string { return fmt.Sprintf("diff(%s, %s)", d.L, d.E) }

// Project is π_{i1,...,ik}(E) (Definition 1(3)); indices are 1-based
// and may repeat or reorder.
type Project struct {
	Cols []int
	E    Expr
}

// NewProject builds the projection, checking index ranges.
func NewProject(cols []int, e Expr) *Project {
	for _, c := range cols {
		if c < 1 || c > e.Arity() {
			panic(fmt.Sprintf("ra: projection index %d out of range 1..%d", c, e.Arity()))
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

// Select is σ_{i op j}(E) (Definition 1(4)). The paper defines σi=j and
// σi<j; we also allow ≠ and > which are definable from them and keep
// expressions readable.
type Select struct {
	I  int
	Op Op
	J  int
	E  Expr
}

// NewSelect builds the selection, checking index ranges.
func NewSelect(i int, op Op, j int, e Expr) *Select {
	if i < 1 || i > e.Arity() || j < 1 || j > e.Arity() {
		panic(fmt.Sprintf("ra: selection σ%d%s%d on arity %d", i, op, j, e.Arity()))
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

// SelectConst is the derived selection σ_{i=‘c’}(E). The paper derives
// it as π1..n(σi=n+1(τc(E))); we provide it as a first-class node for
// convenience, and Desugar rewrites it to the primitive form.
type SelectConst struct {
	I int
	C rel.Value
	E Expr
}

// NewSelectConst builds σ_{i=c}(E).
func NewSelectConst(i int, c rel.Value, e Expr) *SelectConst {
	if i < 1 || i > e.Arity() {
		panic(fmt.Sprintf("ra: selection σ%d='%v' on arity %d", i, c, e.Arity()))
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

// ConstTag is τ_c(E) (Definition 1(5)): appends the constant c to every
// tuple, producing arity n+1.
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

// Join is E1 ⋈θ E2 (Definition 1(6)); the result has arity n+m. The
// cartesian product is the join with empty θ.
type Join struct {
	L, E Expr
	Cond Cond
}

// NewJoin builds E1 ⋈θ E2, validating the condition against the
// operand arities.
func NewJoin(l Expr, c Cond, r Expr) *Join {
	if err := c.Validate(l.Arity(), r.Arity()); err != nil {
		panic("ra: " + err.Error())
	}
	return &Join{L: l, E: r, Cond: append(Cond(nil), c...)}
}

// Product builds the cartesian product E1 × E2.
func Product(l, r Expr) *Join { return NewJoin(l, nil, r) }

// Arity implements Expr.
func (j *Join) Arity() int { return j.L.Arity() + j.E.Arity() }

// Children implements Expr.
func (j *Join) Children() []Expr { return []Expr{j.L, j.E} }

// String implements Expr.
func (j *Join) String() string {
	return fmt.Sprintf("join[%s](%s, %s)", j.Cond, j.L, j.E)
}

// Walk visits e and all subexpressions in preorder.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	for _, c := range e.Children() {
		Walk(c, visit)
	}
}

// Constants returns the set of constants used by the expression (in τc
// and σi=c nodes), sorted.
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

// IsEquiOnly reports whether every join in e uses only equality atoms,
// i.e. whether e belongs to RA=.
func IsEquiOnly(e Expr) bool {
	ok := true
	Walk(e, func(x Expr) {
		if j, ok2 := x.(*Join); ok2 && !j.Cond.IsEquiOnly() {
			ok = false
		}
	})
	return ok
}

// Desugar rewrites derived forms into the primitive operators of
// Definition 1: SelectConst σi=c(E) becomes π1..n(σi=n+1(τc(E))), and
// Select with ≠ or > becomes a combination of the primitive σi=j, σi<j
// via difference. The result is semantically equivalent.
func Desugar(e Expr) Expr {
	switch n := e.(type) {
	case *Rel:
		return n
	case *Union:
		return NewUnion(Desugar(n.L), Desugar(n.E))
	case *Diff:
		return NewDiff(Desugar(n.L), Desugar(n.E))
	case *Project:
		return NewProject(n.Cols, Desugar(n.E))
	case *Select:
		inner := Desugar(n.E)
		switch n.Op {
		case OpEq, OpLt:
			return NewSelect(n.I, n.Op, n.J, inner)
		case OpGt:
			return NewSelect(n.J, OpLt, n.I, inner)
		default: // OpNe: E − σi=j(E)
			return NewDiff(inner, NewSelect(n.I, OpEq, n.J, inner))
		}
	case *SelectConst:
		inner := Desugar(n.E)
		ar := inner.Arity()
		cols := make([]int, ar)
		for i := range cols {
			cols[i] = i + 1
		}
		return NewProject(cols, NewSelect(n.I, OpEq, ar+1, NewConstTag(n.C, inner)))
	case *ConstTag:
		return NewConstTag(n.C, Desugar(n.E))
	case *Join:
		return NewJoin(Desugar(n.L), n.Cond, Desugar(n.E))
	}
	panic(fmt.Sprintf("ra: unknown expression %T", e))
}
