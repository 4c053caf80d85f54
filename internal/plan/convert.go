package plan

import (
	"fmt"

	"radiv/internal/ra"
	"radiv/internal/sa"
	"radiv/internal/xra"
)

// This file converts between the IR and the three algebras' ASTs.
// FromRA/FromSA/FromXRA are total — every expression of the three
// algebras has an IR form (an xra.Wrap is transparent: the IR holds the
// wrapped RA subtree itself).
// The To* directions are partial: ToRA fails on SA/XRA-only operators,
// ToSA on joins and γ, ToXRA on anything the extended algebra lacks
// below its Join/Project/Gamma spine (xra has no union, difference or
// selections of its own — those must sit inside a wrapped pure-RA
// subtree).

// FromRA converts an RA expression into the IR.
func FromRA(e ra.Expr) *Node {
	switch n := e.(type) {
	case *ra.Rel:
		return NRel(n.Name, n.Arity())
	case *ra.Union:
		return NUnion(FromRA(n.L), FromRA(n.E))
	case *ra.Diff:
		return NDiff(FromRA(n.L), FromRA(n.E))
	case *ra.Project:
		return NProject(n.Cols, FromRA(n.E))
	case *ra.Select:
		return NSelect(n.I, n.Op, n.J, FromRA(n.E))
	case *ra.SelectConst:
		return NSelectConst(n.I, n.C, FromRA(n.E))
	case *ra.ConstTag:
		return NConstTag(n.C, FromRA(n.E))
	case *ra.Join:
		return NJoin(FromRA(n.L), n.Cond, FromRA(n.E))
	}
	panic(fmt.Sprintf("plan: unknown ra expression %T", e))
}

// FromSA converts an SA expression into the IR.
func FromSA(e sa.Expr) *Node {
	switch n := e.(type) {
	case *sa.Rel:
		return NRel(n.Name, n.Arity())
	case *sa.Union:
		return NUnion(FromSA(n.L), FromSA(n.E))
	case *sa.Diff:
		return NDiff(FromSA(n.L), FromSA(n.E))
	case *sa.Project:
		return NProject(n.Cols, FromSA(n.E))
	case *sa.Select:
		return NSelect(n.I, n.Op, n.J, FromSA(n.E))
	case *sa.SelectConst:
		return NSelectConst(n.I, n.C, FromSA(n.E))
	case *sa.ConstTag:
		return NConstTag(n.C, FromSA(n.E))
	case *sa.Semijoin:
		return NSemijoin(FromSA(n.L), n.Cond, FromSA(n.E))
	case *sa.Antijoin:
		return NAntijoin(FromSA(n.L), n.Cond, FromSA(n.E))
	}
	panic(fmt.Sprintf("plan: unknown sa expression %T", e))
}

// FromXRA converts an extended-algebra expression into the IR.
func FromXRA(e xra.Expr) *Node {
	switch n := e.(type) {
	case *xra.Wrap:
		return FromRA(n.E)
	case *xra.Gamma:
		return NGamma(n.GroupCols, n.CountCol, FromXRA(n.E))
	case *xra.Join:
		return NJoin(FromXRA(n.L), n.Cond, FromXRA(n.E))
	case *xra.Project:
		return NProject(n.Cols, FromXRA(n.E))
	}
	panic(fmt.Sprintf("plan: unknown xra expression %T", e))
}

// ToRA converts the plan back to pure RA, or reports false when it
// uses an operator RA lacks.
func ToRA(n *Node) (ra.Expr, bool) {
	switch n.Kind {
	case KRel:
		return ra.R(n.Name, n.arity), true
	case KUnion:
		l, ok := ToRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		r, ok := ToRA(n.Kids[1])
		if !ok {
			return nil, false
		}
		return ra.NewUnion(l, r), true
	case KDiff:
		l, ok := ToRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		r, ok := ToRA(n.Kids[1])
		if !ok {
			return nil, false
		}
		return ra.NewDiff(l, r), true
	case KProject:
		in, ok := ToRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return ra.NewProject(n.Cols, in), true
	case KSelect:
		in, ok := ToRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return ra.NewSelect(n.I, n.Op, n.J, in), true
	case KSelectConst:
		in, ok := ToRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return ra.NewSelectConst(n.I, n.C, in), true
	case KConstTag:
		in, ok := ToRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return ra.NewConstTag(n.C, in), true
	case KJoin:
		l, ok := ToRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		r, ok := ToRA(n.Kids[1])
		if !ok {
			return nil, false
		}
		return ra.NewJoin(l, n.Cond, r), true
	}
	return nil, false
}

// ToSA converts the plan to the semijoin algebra, or reports false
// when it uses joins or γ.
func ToSA(n *Node) (sa.Expr, bool) {
	switch n.Kind {
	case KRel:
		return sa.R(n.Name, n.arity), true
	case KUnion:
		l, ok := ToSA(n.Kids[0])
		if !ok {
			return nil, false
		}
		r, ok := ToSA(n.Kids[1])
		if !ok {
			return nil, false
		}
		return sa.NewUnion(l, r), true
	case KDiff:
		l, ok := ToSA(n.Kids[0])
		if !ok {
			return nil, false
		}
		r, ok := ToSA(n.Kids[1])
		if !ok {
			return nil, false
		}
		return sa.NewDiff(l, r), true
	case KProject:
		in, ok := ToSA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return sa.NewProject(n.Cols, in), true
	case KSelect:
		in, ok := ToSA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return sa.NewSelect(n.I, n.Op, n.J, in), true
	case KSelectConst:
		in, ok := ToSA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return sa.NewSelectConst(n.I, n.C, in), true
	case KConstTag:
		in, ok := ToSA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return sa.NewConstTag(n.C, in), true
	case KSemijoin, KAntijoin:
		l, ok := ToSA(n.Kids[0])
		if !ok {
			return nil, false
		}
		r, ok := ToSA(n.Kids[1])
		if !ok {
			return nil, false
		}
		if n.Kind == KSemijoin {
			return sa.NewSemijoin(l, n.Cond, r), true
		}
		return sa.NewAntijoin(l, n.Cond, r), true
	}
	return nil, false
}

// ToXRA converts the plan to the extended algebra: maximal pure-RA
// subtrees become xra.Wrap leaves, and only Join, Project and Gamma
// may appear above them.
func ToXRA(n *Node) (xra.Expr, bool) {
	if e, ok := ToRA(n); ok {
		return &xra.Wrap{E: e}, true
	}
	switch n.Kind {
	case KJoin:
		l, ok := ToXRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		r, ok := ToXRA(n.Kids[1])
		if !ok {
			return nil, false
		}
		return xra.NewJoin(l, n.Cond, r), true
	case KProject:
		in, ok := ToXRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return xra.NewProject(n.Cols, in), true
	case KGamma:
		in, ok := ToXRA(n.Kids[0])
		if !ok {
			return nil, false
		}
		return xra.NewGamma(n.Cols, n.CountCol, in), true
	}
	return nil, false
}
