package ra

// This file collects well-known derived expressions that the paper
// discusses: the textbook RA expressions for relational division and
// for the set joins. They are deliberately written in the pure algebra
// of Definition 1 so their intermediate sizes can be measured; the
// paper's Proposition 26 proves every such expression is quadratic.

// DivisionExpr returns the classical RA expression for containment
// division R(A,B) ÷ S(B) over binary R and unary S:
//
//	π1(R) − π1( (π1(R) × S) − R )
//
// The subexpression π1(R) × S is the quadratic intermediate the paper
// proves unavoidable.
func DivisionExpr(rName, sName string) Expr {
	r := R(rName, 2)
	s := R(sName, 1)
	candidates := NewProject([]int{1}, r)
	missing := NewDiff(Product(candidates, s), r)
	return NewDiff(candidates, NewProject([]int{1}, missing))
}

// EqualityDivisionExpr returns an RA expression for equality division:
// the A's whose B-set equals S exactly. It is containment division
// minus the A's related to some B outside S:
//
//	(R ÷ S) − π1( R ⋈[2≠·] ... )
//
// concretely: π1(R ⋉ B∉S) is expressed as π1(R) − π1(R ⋈2=1 S)
// complemented via difference:
//
//	extras = π1( R − (π1(R) × S ∩ R) )   -- A's with a B outside S
//
// Implemented as: divide = DivisionExpr; extras = π1(R − σmatch);
// result = divide − extras.
func EqualityDivisionExpr(rName, sName string) Expr {
	r := R(rName, 2)
	s := R(sName, 1)
	// Tuples of R whose B occurs in S: π1,2(σ2=3(R × S)).
	inS := NewProject([]int{1, 2}, NewSelect(2, OpEq, 3, Product(r, s)))
	extras := NewProject([]int{1}, NewDiff(r, inS))
	return NewDiff(DivisionExpr(rName, sName), extras)
}

// SetContainmentJoinExpr returns the classical RA expression for the
// set-containment join R(A,B) ⋈_{B⊇D} S(C,D) over binary R and S:
// pairs (a,c) such that {b | R(a,b)} ⊇ {d | S(c,d)}.
//
//	(π1(R) × π1(S)) − π1,3( (π1(R) × S) − π1,4,3( (R × π1(S)) ⋈... ) )
//
// concretely: pairs (a,c,d) with S(c,d) but not R(a,d) witness
// non-containment; subtract their (a,c) projection from all pairs.
func SetContainmentJoinExpr(rName, sName string) Expr {
	r := R(rName, 2)
	s := R(sName, 2)
	allPairs := Product(NewProject([]int{1}, r), NewProject([]int{1}, s))
	// triples (a, c, d) with a ∈ π1(R) and S(c,d):
	triples := Product(NewProject([]int{1}, r), s)
	// witnesses of non-containment: triples where (a,d) ∉ R. Compute
	// triples minus the triples whose (a,d) ∈ R:
	// good = π1,3,4( σ1=3(R × S) )? We need (a,c,d) with R(a,d)∧S(c,d):
	// join R and S on B=D: (a,b,c,d) with b=d → project (a,c,d).
	good := NewProject([]int{1, 3, 4}, NewJoin(r, Eq(2, 2), s))
	bad := NewDiff(triples, good)
	return NewDiff(allPairs, NewProject([]int{1, 2}, bad))
}

// SetEqualityJoinExpr returns an RA expression for the set-equality
// join of binary R(A,B) and S(C,D): pairs (a,c) with
// {b | R(a,b)} = {d | S(c,d)}. It is the intersection of containment
// both ways.
func SetEqualityJoinExpr(rName, sName string) Expr {
	fwd := SetContainmentJoinExpr(rName, sName)
	bwdSwapped := SetContainmentJoinExpr(sName, rName) // (c,a) pairs
	bwd := NewProject([]int{2, 1}, bwdSwapped)
	// Intersection via difference: fwd − (fwd − bwd).
	return NewDiff(fwd, NewDiff(fwd, bwd))
}

// Intersect builds E1 ∩ E2 = E1 − (E1 − E2).
func Intersect(l, r Expr) Expr { return NewDiff(l, NewDiff(l, r)) }

// EquiSemijoinExpr expresses the equi-semijoin E1 ⋉θ E2 in RA in the
// linear way shown after Theorem 18 in the paper: project E2 onto the
// columns used by θ, join, and project back onto E1's columns. θ must
// be equi-only.
func EquiSemijoinExpr(l Expr, c Cond, r Expr) Expr {
	if !c.IsEquiOnly() {
		panic("ra: EquiSemijoinExpr requires an equi-condition")
	}
	eqs := c.EqPairs()
	if len(eqs) == 0 {
		panic("ra: EquiSemijoinExpr requires at least one equality")
	}
	rcols := make([]int, len(eqs))
	for i, p := range eqs {
		rcols[i] = p[1]
	}
	proj := NewProject(rcols, r)
	cond := make(Cond, len(eqs))
	for i, p := range eqs {
		cond[i] = Atom{p[0], OpEq, i + 1}
	}
	lcols := make([]int, l.Arity())
	for i := range lcols {
		lcols[i] = i + 1
	}
	return NewProject(lcols, NewJoin(l, cond, proj))
}
