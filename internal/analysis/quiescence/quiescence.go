// Package quiescence enforces the sealing contract of the sharded
// partition and the worker pool (shard/snapshot.go, exec/pool.go). The
// law has two halves:
//
//  1. A published shard.Snapshot is immutable. It hands out sealed
//     state — shard-local relations and the one dictionary every shard
//     shares — and nothing obtained from one may ever be mutated: no
//     Relation.Add/AddBatch/Reserve/Sort, no Interner.Intern. The
//     partition is written in shard.FromStore's build, before Publish.
//
//  2. Pool workers do not intern into shared dictionaries. The task
//     callbacks of exec.Run run concurrently with each other, and a
//     rel.Interner is not safe for concurrent mutation — so no worker
//     may intern into any dictionary captured from the enclosing
//     scope. Reading captured dictionaries is legal: the dictionaries
//     a worker is handed are sealed; what workers must not do is
//     mutate.
//
// Half 1 is a lexical taint walk per function body: shard.Snapshot
// method results (and values derived from them through method chains
// and assignments) are tainted, mutating method calls on tainted
// receivers are flagged, and Clone sanitizes — a cloned relation is
// the caller's to mutate. Half 2 inspects every function-literal task
// callback passed to exec.Run and flags interning calls —
// Interner.Intern, Relation.Add/AddBatch,
// Database.Add/AddInts/AddStrs — whose receiver
// is captured from the enclosing scope. A receiver declared inside the
// callback (a worker-local relation or interner) is private to the
// worker and exempt.
package quiescence

import (
	"go/ast"
	"go/types"

	"radiv/internal/analysis"
)

// Analyzer is the quiescence check.
var Analyzer = &analysis.Analyzer{
	Name: "quiescence",
	Doc:  "forbid mutation of published snapshots and interning on captured dictionaries inside exec.Run task callbacks",
	Run:  run,
}

const (
	relPath   = "radiv/internal/rel"
	execPath  = "radiv/internal/exec"
	shardPath = "radiv/internal/shard"
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Half 1: snapshot immutability, one taint walk per function.
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSnapshotMutation(pass, fd.Body)
			}
		}
		// Half 2: worker interning bans. exec.Run's last argument is
		// the task callback its workers run concurrently.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !analysis.CalleePkgFunc(pass, call, execPath, "Run") {
				return true
			}
			work, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true // a named worker function: outside the lexical contract
			}
			checkWorker(pass, work)
			return true
		})
	}
	return nil
}

// checkWorker flags interning on captured receivers anywhere lexically
// inside the worker callback.
func checkWorker(pass *analysis.Pass, work *ast.FuncLit) {
	ast.Inspect(work.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, recv := analysis.MethodCall(pass, call)
		if sel == nil || recv == nil {
			return true
		}
		kind := classify(sel.Sel.Name, recv)
		if kind == "" {
			return true
		}
		if root := analysis.RootIdent(sel.X); root != nil {
			obj := pass.TypesInfo.Uses[root]
			if obj == nil {
				obj = pass.TypesInfo.Defs[root]
			}
			if analysis.DeclaredWithin(obj, work) {
				return true // worker-local dictionary: private to this goroutine
			}
		}
		pass.Reportf(call.Pos(), "%s inside a pool worker: workers share it with other goroutines; intern before exec.Run", kind)
		return true
	})
}

// classify returns a description of the hazardous interning call, or
// "" for calls outside the contract.
func classify(name string, recv types.Type) string {
	if analysis.IsNamed(recv, relPath, "Database") {
		switch name {
		case "Add", "AddInts", "AddStrs":
			return "Database." + name + " interning into a captured database"
		}
		return ""
	}
	switch name {
	case "Intern":
		if analysis.IsNamed(recv, relPath, "Interner") {
			return "Interner.Intern on a captured dictionary"
		}
	case "Add":
		if analysis.IsNamed(recv, relPath, "Relation") {
			return "Relation.Add interning into a captured relation's dictionary"
		}
	case "AddBatch":
		if analysis.IsNamed(recv, relPath, "Relation") {
			return "Relation.AddBatch interning into a captured relation's dictionary"
		}
	}
	return ""
}

// isSnapshotType reports whether t is the published snapshot type,
// shard.Snapshot (possibly behind a pointer).
func isSnapshotType(t types.Type) bool { return analysis.IsNamed(t, shardPath, "Snapshot") }

// snapSink returns a description of a mutating call on a
// snapshot-derived receiver, or "" for reads (which are the point of
// snapshots and always legal).
func snapSink(name string, recv types.Type) string {
	switch name {
	case "Add", "AddBatch", "Reserve", "Sort":
		if analysis.IsNamed(recv, relPath, "Relation") {
			return "Relation." + name
		}
	case "Intern":
		if analysis.IsNamed(recv, relPath, "Interner") {
			return "Interner.Intern"
		}
	}
	return ""
}

// checkSnapshotMutation runs the snapshot-immutability taint walk over
// one function body in source order. Taint sources are snapshot method
// results; taint propagates through assignments, method chains (Clone
// excepted — a clone is caller-owned) and IDColumns' results. Mutating
// method calls on tainted receivers are flagged. Function literals are
// walked too: a worker closure mutating captured snapshot state is
// exactly the race the contract exists to prevent.
func checkSnapshotMutation(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)

	var exprTaint func(e ast.Expr) bool
	exprTaint = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			return obj != nil && tainted[obj]
		case *ast.TypeAssertExpr:
			return exprTaint(e.X)
		case *ast.CallExpr:
			if sel, recv := analysis.MethodCall(pass, e); sel != nil && recv != nil {
				if isSnapshotType(recv) {
					return true // a snapshot method result is sealed state
				}
				if sel.Sel.Name == "Clone" {
					return false // a clone is the caller's to mutate
				}
				return exprTaint(sel.X) // method chain off tainted state
			}
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
			// Multi-value call: taint flows into the results of the one
			// multi-result source, IDColumns on a tainted relation (the
			// columns and their dictionary).
			taint := false
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				if sel, recv := analysis.MethodCall(pass, call); sel != nil && recv != nil && sel.Sel.Name == "IDColumns" {
					taint = exprTaint(sel.X)
				}
			}
			for _, l := range lhs {
				setTaint(l, taint)
			}
			return
		}
		for i, l := range lhs {
			if i < len(rhs) {
				setTaint(l, exprTaint(rhs[i]))
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
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
		case *ast.CallExpr:
			sel, recv := analysis.MethodCall(pass, n)
			if sel == nil || recv == nil {
				return true
			}
			if kind := snapSink(sel.Sel.Name, recv); kind != "" && exprTaint(sel.X) {
				pass.Reportf(n.Pos(), "%s mutating a published snapshot: a shard.Snapshot is sealed; build the partition with shard.FromStore before Publish", kind)
			}
		}
		return true
	})
}
