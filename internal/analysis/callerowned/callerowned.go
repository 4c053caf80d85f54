// Package callerowned enforces the caller-owned-result contract of
// the evaluators: an exported entry point that returns a
// *rel.Relation or rel.StoredRel must never hand back a relation
// still reachable from a store — the aliasing bug class PRs 2–4 fixed
// by hand, where ra.Eval on a bare-Rel root returned the database's
// own relation and a caller's Add wrote through into the store.
//
// The check is a lexical taint analysis over each exported
// package-level function body. Taint sources are the view-yielding
// calls of the storage layer:
//
//   - any call whose single result is the rel.StoredRel interface
//     (ReadStore.View, rel.CheckView);
//   - any method named Rel returning *rel.Relation (Database.Rel);
//   - any call returning (*rel.Relation, bool) — the possibly-aliased
//     shape of rel.Materialized and BaseResolver.Resolve, whose bool
//     reports whether the store handed out its own storage.
//
// Assigning a clean value — r.Clone(), rel.NewRelation, an operator
// result — clears a variable's taint, which accepts the canonical
// root-ownership pattern:
//
//	r, aliased := resolve(...)
//	if aliased {
//		r = r.Clone()
//	}
//	return r
//
// (the conditional clone reassigns r from a sanitizer before any
// return). Returning a tainted variable or a source call's result
// directly is flagged.
//
// Scope: exported package-level functions AND exported methods,
// outside package rel itself — the storage layer hands out views by
// documented contract (ReadStore.View, Materialized's aliased flag); the
// ownership contract binds the layers above it, entry-point methods
// (plan.Plan.Execute, shard accessors) included. The shard layer's
// documented read accessor (Snapshot.ShardRel) carries a
// //radivvet:ignore directive instead, mirroring package rel's
// exemption. Function
// literals are not analyzed (and taint neither enters nor escapes
// them): interior cursors and sinks hold read-only views by design.
package callerowned

import (
	"go/ast"
	"go/types"

	"radiv/internal/analysis"
)

// Analyzer is the callerowned check.
var Analyzer = &analysis.Analyzer{
	Name: "callerowned",
	Doc:  "exported functions must not return store-owned (aliased) relations without a Clone/Materialized snapshot on the path",
	Run:  run,
}

const relPath = "radiv/internal/rel"

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == relPath {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc runs the taint walk over one function body in source
// order.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	tainted := make(map[types.Object]bool)

	var exprTaint func(e ast.Expr) bool
	exprTaint = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			return obj != nil && tainted[obj]
		case *ast.CallExpr:
			return isViewSource(pass, e)
		case *ast.TypeAssertExpr:
			return exprTaint(e.X)
		}
		return false
	}

	setTaint := func(lhs ast.Expr, v bool) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj != nil {
			tainted[obj] = v
		}
	}

	handleAssign := func(lhs, rhs []ast.Expr) {
		if len(rhs) == 1 && len(lhs) > 1 {
			// Multi-value call: taint flows into the first result of a
			// (possibly-aliased relation, bool) source.
			call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
			taint := ok && isAliasedPairSource(pass, call)
			setTaint(lhs[0], taint)
			for _, l := range lhs[1:] {
				setTaint(l, false)
			}
			return
		}
		for i, l := range lhs {
			if i < len(rhs) {
				setTaint(l, exprTaint(rhs[i]))
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // interior closures hold read-only views by design
		case *ast.AssignStmt:
			handleAssign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			if len(n.Values) > 0 {
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				handleAssign(lhs, n.Values)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if exprTaint(res) {
					pass.Reportf(res.Pos(), "%s returns a store-owned relation (aliased view) without a Clone/Materialized snapshot on the path; evaluator results must be caller-owned", fd.Name.Name)
				} else if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && len(n.Results) == 1 && isAliasedPairSource(pass, call) {
					pass.Reportf(res.Pos(), "%s forwards a possibly-aliased (relation, bool) result without consuming the aliased flag; clone before returning", fd.Name.Name)
				}
			}
		}
		return true
	})
}

// isViewSource reports whether the call's single result is a stored
// view: the rel.StoredRel interface, or *rel.Relation from a method
// named Rel.
func isViewSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	if analysis.IsNamed(tv.Type, relPath, "StoredRel") {
		return true
	}
	if sel, _ := analysis.MethodCall(pass, call); sel != nil && sel.Sel.Name == "Rel" && analysis.IsNamed(tv.Type, relPath, "Relation") {
		return true
	}
	return false
}

// isAliasedPairSource reports whether the call returns exactly
// (*rel.Relation, bool) — the possibly-aliased contract shape of
// rel.Materialized and BaseResolver.Resolve.
func isAliasedPairSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok || tuple.Len() != 2 {
		return false
	}
	first, second := tuple.At(0).Type(), tuple.At(1).Type()
	basic, ok := second.Underlying().(*types.Basic)
	return analysis.IsNamed(first, relPath, "Relation") && ok && basic.Kind() == types.Bool
}
