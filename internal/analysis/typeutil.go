package analysis

// Shared type- and syntax-inspection helpers for the analyzers: named
// type matching across pointers, receiver resolution of method calls,
// leftmost-constant-string extraction for the panic-style check, and
// root-identifier resolution of receiver chains for the capture checks.

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// deref unwraps one level of pointer; other types pass through.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// IsNamed reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// MethodCall matches a call expression of the form recv.name(...) and
// returns the selector and the static type of recv. The second result
// is nil for plain function calls and conversions.
func MethodCall(pass *Pass, call *ast.CallExpr) (*ast.SelectorExpr, types.Type) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	// A selector can also be a qualified identifier (pkg.Func) or a
	// field access; only method selections have a receiver type.
	if selInfo, ok := pass.TypesInfo.Selections[sel]; ok {
		return sel, selInfo.Recv()
	}
	return sel, nil
}

// CalleePkgFunc reports whether call is a direct call of the
// package-level function pkgPath.name.
func CalleePkgFunc(pass *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// ConstHead returns the leftmost compile-time-constant string of an
// expression: the literal itself, the left operand of a + chain, or
// the format argument of a fmt.Sprintf call. ok is false when no
// constant head can be determined (a dynamic value re-panicked, say).
func ConstHead(pass *Pass, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		return ConstHead(pass, e.X)
	case *ast.CallExpr:
		if CalleePkgFunc(pass, e, "fmt", "Sprintf") && len(e.Args) > 0 {
			return ConstHead(pass, e.Args[0])
		}
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}

// RootIdent resolves the leftmost identifier of a receiver chain:
// x in x.a, x.a[i].b, x.m().f, and plain x. It is nil for chains not
// rooted in an identifier (composite literals, call results of plain
// functions).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			// A method-chain link: the root of f in x.m().f is x.
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			e = sel.X
		default:
			return nil
		}
	}
}

// DeclaredWithin reports whether obj's declaration lies inside the
// source range of node — used to distinguish a worker callback's own
// locals and parameters from variables captured from the enclosing
// scope.
func DeclaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}
