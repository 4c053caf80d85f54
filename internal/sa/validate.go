package sa

import "fmt"

// Validate checks every node of the expression tree for structural
// errors: projection and selection column indices out of the child's
// arity, semijoin/antijoin condition atoms out of the operands'
// arities, and union/difference arity mismatches. The checking
// constructors (NewSelect, NewProject, NewSemijoin, ...) enforce the
// same invariants at build time; Validate covers trees assembled from
// struct literals, which previously panicked with raw
// index-out-of-range errors mid-eval. EvalTraced calls it at entry,
// mirroring ra.Validate.
func Validate(e Expr) error {
	for _, c := range e.Children() {
		if err := Validate(c); err != nil {
			return err
		}
	}
	switch n := e.(type) {
	case *Rel:
		// Arity consistency with the database is checked at eval time.
	case *Union:
		if n.L.Arity() != n.E.Arity() {
			return fmt.Errorf("union of arities %d and %d", n.L.Arity(), n.E.Arity())
		}
	case *Diff:
		if n.L.Arity() != n.E.Arity() {
			return fmt.Errorf("difference of arities %d and %d", n.L.Arity(), n.E.Arity())
		}
	case *Project:
		for _, c := range n.Cols {
			if c < 1 || c > n.E.Arity() {
				return fmt.Errorf("projection index %d out of range 1..%d in %s", c, n.E.Arity(), n)
			}
		}
	case *Select:
		if n.I < 1 || n.I > n.E.Arity() || n.J < 1 || n.J > n.E.Arity() {
			return fmt.Errorf("selection σ%d%s%d on arity %d", n.I, n.Op, n.J, n.E.Arity())
		}
	case *SelectConst:
		if n.I < 1 || n.I > n.E.Arity() {
			return fmt.Errorf("selection σ%d='%v' on arity %d", n.I, n.C, n.E.Arity())
		}
	case *ConstTag:
		// Always well formed.
	case *Semijoin:
		if err := n.Cond.Validate(n.L.Arity(), n.E.Arity()); err != nil {
			return err
		}
	case *Antijoin:
		if err := n.Cond.Validate(n.L.Arity(), n.E.Arity()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
	return nil
}
