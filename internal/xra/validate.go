package xra

import (
	"fmt"

	"radiv/internal/ra"
)

// Validate checks every node of the expression tree for structural
// errors, mirroring ra.Validate and sa.Validate: grouping/count/
// projection column indices out of the child's arity and
// join-condition atoms out of the operands' arities. Wrapped pure-RA
// subexpressions are validated by ra.Validate. The checking
// constructors enforce the same invariants at build time; Validate
// covers trees assembled from struct literals. EvalTraced calls it at
// entry.
func Validate(e Expr) error {
	for _, c := range e.Children() {
		if err := Validate(c); err != nil {
			return err
		}
	}
	switch n := e.(type) {
	case *Wrap:
		return ra.Validate(n.E)
	case *Gamma:
		for _, c := range n.GroupCols {
			if c < 1 || c > n.E.Arity() {
				return fmt.Errorf("group column %d out of range 1..%d in %s", c, n.E.Arity(), n)
			}
		}
		if n.CountCol < 0 || n.CountCol > n.E.Arity() {
			return fmt.Errorf("count column %d out of range 0..%d in %s", n.CountCol, n.E.Arity(), n)
		}
	case *Join:
		if err := n.Cond.Validate(n.L.Arity(), n.E.Arity()); err != nil {
			return err
		}
	case *Project:
		for _, c := range n.Cols {
			if c < 1 || c > n.E.Arity() {
				return fmt.Errorf("projection index %d out of range 1..%d in %s", c, n.E.Arity(), n)
			}
		}
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
	return nil
}
