// Package batchrelease enforces the pooled-batch ownership contract
// of the columnar layer (internal/rel/batch.go): a batch obtained
// from rel.NewBatch/NewBatchSized or pulled from a BatchCursor is
// owned by the acquirer, who must either call Release exactly once on
// every path or hand the batch off (send it downstream, store it,
// return it) — and must never Release twice, because a double-release
// puts the same column arrays into the sync.Pool twice and two future
// acquirers end up writing over each other.
//
// The check is an intraprocedural abstract walk of each function
// body. Per tracked batch variable it carries one of five states —
// untracked, held, released, deferred, escaped — through statements,
// cloning at branches and merging after them:
//
//   - x.Release() moves held→released; a second Release (or one after
//     defer x.Release()) is a double-release finding;
//   - passing the batch to any call argument, channel send, return
//     value, closure, store into a field/slice/map, or alias
//     transfers ownership: the variable becomes escaped and is no
//     longer reported (handing off is the documented pipeline
//     pattern — correctness is then the consumer's obligation);
//     reading through the batch (b.Len(), b.Col(i)) is not a
//     handoff;
//   - a return or function end reached while a batch is definitely
//     held is a leak finding; so is overwriting a held variable (the
//     skip-empty-batch loop that drops a pooled batch on the floor
//     each iteration);
//   - the comma-ok of `b, ok := cur.NextBatch()` is understood:
//     ok-false paths carry a nil batch and owe nothing;
//   - branches that disagree about a variable's state merge to
//     escaped: the analyzer only reports what is certain on a lexical
//     path, never what is merely possible.
//
// View batches are exempt by provenance, exactly as the contract
// exempts them: a cursor obtained from BatchScan/BatchScanSized
// yields views whose Release is a no-op (aliased storage never
// reaches the pool), so batches pulled from it are not tracked.
// Explicit panic paths owe no release: package-prefixed panics signal
// programming errors, and the boundary turns them into a dead query
// whose pooled arrays are GC-recoverable.
//
// Governed abort paths are different, and checked (the abort
// contract): the Governor checkpoints Check and CheckResident unwind
// in *normal operation* — on cancellation or a budget trip — and the
// boundary recovery releases only the holders registered with the
// governor (Governor.Watch). A batch that is definitely held at
// such a checkpoint call therefore leaks live pool count on every
// abort; the pull-boundary idiom (check first, then pull) or a
// deferred Release (defers run during the unwind) are the accepted
// shapes, and an escape (handoff or Governor.Watch registration,
// which passes the holder to a call) silences the check as usual.
package batchrelease

import (
	"go/ast"
	"go/token"
	"go/types"

	"radiv/internal/analysis"
)

// Analyzer is the batchrelease check.
var Analyzer = &analysis.Analyzer{
	Name: "batchrelease",
	Doc:  "pooled rel.Batch values must be Released exactly once on every path, or handed off",
	Run:  run,
}

const (
	relPath  = "radiv/internal/rel"
	execPath = "radiv/internal/exec"
)

type state int

const (
	none state = iota // untracked, nil, or consumed
	held
	released
	deferred
	escaped
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Every function body — declarations and literals — is
			// analyzed independently; the walker treats a nested literal
			// as an escape boundary for the enclosing body's batches.
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					analyzeBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				analyzeBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checker carries the per-body facts that survive branching: which
// cursors yield view batches, which bool guards which batch, and
// where each batch was acquired.
type checker struct {
	pass        *analysis.Pass
	viewCursors map[types.Object]bool
	okPairs     map[types.Object]types.Object
	acqPos      map[types.Object]token.Pos
}

type stateMap map[types.Object]state

func (m stateMap) clone() stateMap {
	c := make(stateMap, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func analyzeBody(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{
		pass:        pass,
		viewCursors: make(map[types.Object]bool),
		okPairs:     make(map[types.Object]types.Object),
		acqPos:      make(map[types.Object]token.Pos),
	}
	st := make(stateMap)
	if term := c.walkStmts(body.List, st); !term {
		c.reportHeld(st, "is still held when the function returns; release it or hand it off")
	}
}

func (c *checker) reportHeld(st stateMap, why string) {
	for obj, s := range st {
		if s == held {
			c.pass.Reportf(c.acqPos[obj], "pooled batch %s acquired here %s", obj.Name(), why)
			st[obj] = escaped // one report per acquisition
		}
	}
}

// walkStmts walks a statement list, returning whether control
// definitely cannot fall out of its end.
func (c *checker) walkStmts(stmts []ast.Stmt, st stateMap) bool {
	for _, s := range stmts {
		if c.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(s ast.Stmt, st stateMap) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.assign(s.Lhs, s.Rhs, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					c.assign(lhs, vs.Values, st)
				}
			}
		}
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			c.escapeIn(s.X, st)
			return false
		}
		if obj := c.releaseTarget(call); obj != nil {
			switch st[obj] {
			case held:
				st[obj] = released
			case released:
				c.pass.Reportf(call.Pos(), "pooled batch %s released twice: a double-release recycles live column storage", obj.Name())
				st[obj] = escaped
			case deferred:
				c.pass.Reportf(call.Pos(), "pooled batch %s already has a deferred Release; this call double-releases it", obj.Name())
				st[obj] = escaped
			}
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				return true // panic paths owe no release (pool entries are GC-recoverable)
			}
		}
		if c.isGovCheck(call) {
			// Governor checkpoints unwind on abort with only watched
			// holders released: a batch held here leaks on every abort.
			c.reportHeld(st, "is held across a governor checkpoint that can unwind on abort; check before pulling, defer the release, or register the holder with Governor.Watch")
			return false
		}
		c.escapeIn(call, st)
	case *ast.SendStmt:
		c.escapeIn(s.Value, st)
		c.escapeIn(s.Chan, st)
	case *ast.DeferStmt:
		if obj := c.releaseTarget(s.Call); obj != nil {
			switch st[obj] {
			case held:
				st[obj] = deferred
			case released, deferred:
				c.pass.Reportf(s.Call.Pos(), "pooled batch %s released twice: a double-release recycles live column storage", obj.Name())
				st[obj] = escaped
			}
			return false
		}
		c.escapeIn(s.Call, st)
	case *ast.GoStmt:
		c.escapeIn(s.Call, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.escapeIn(r, st)
		}
		c.reportHeld(st, "is not released on the return path below; release it or hand it off")
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the lexical path; held batches on
		// such edges are out of this walker's scope.
		return true
	case *ast.IfStmt:
		return c.walkIf(s, st)
	case *ast.ForStmt:
		c.walkFor(s, st)
	case *ast.RangeStmt:
		c.walkRange(s, st)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Conservative: anything a multi-way branch touches escapes,
		// receivers included — Release calls inside cases are not
		// tracked, so their targets must stop being reported.
		c.escapeAll(s, st)
	case *ast.BlockStmt:
		return c.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)
	}
	return false
}

// walkIf walks both branches from clones of the incoming state,
// applies the comma-ok/nil-check guard, and merges.
func (c *checker) walkIf(s *ast.IfStmt, st stateMap) bool {
	if s.Init != nil {
		c.walkStmt(s.Init, st)
	}
	thenSt, elseSt := st.clone(), st.clone()
	if obj, thenHeld, ok := c.condGuard(s.Cond); ok {
		if !thenHeld {
			thenSt[obj] = none // guard proves the batch is nil here
		} else {
			elseSt[obj] = none
		}
	}
	thenTerm := c.walkStmts(s.Body.List, thenSt)
	elseTerm := false
	if s.Else != nil {
		elseTerm = c.walkStmt(s.Else, elseSt)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		merge(st, elseSt, elseSt)
	case elseTerm:
		merge(st, thenSt, thenSt)
	default:
		merge(st, thenSt, elseSt)
	}
	return false
}

// merge reconciles two branch outcomes into st: agreement is kept,
// disagreement escapes (the analyzer reports only certainties).
func merge(st, a, b stateMap) {
	for obj := range st {
		delete(st, obj)
	}
	for obj, sa := range a {
		if sb, ok := b[obj]; ok && sa == sb {
			st[obj] = sa
		} else if sa != none || (ok && sb != none) {
			st[obj] = escaped
		}
	}
	for obj, sb := range b {
		if _, ok := a[obj]; !ok && sb != none {
			st[obj] = escaped
		}
	}
}

// walkFor handles the canonical cursor loop
//
//	for b, ok := cur.NextBatch(); ok; b, ok = cur.NextBatch() { ... }
//
// as well as plain loops: the body runs on a clone, the post
// statement's overwrite check catches batches still held at the back
// edge, and a comma-ok condition proves the batch nil after exit.
func (c *checker) walkFor(s *ast.ForStmt, st stateMap) {
	if s.Init != nil {
		c.walkStmt(s.Init, st)
	}
	var guarded types.Object
	if obj, thenHeld, ok := c.condGuard(s.Cond); ok && thenHeld {
		guarded = obj
	}
	bodySt := st.clone()
	preBody := bodySt.clone()
	if !c.walkStmts(s.Body.List, bodySt) {
		if s.Post != nil {
			c.walkStmt(s.Post, bodySt) // overwrite-while-held reports here
		}
		// A batch acquired inside the body and still held at the back
		// edge leaks one pooled batch per iteration.
		for obj, v := range bodySt {
			if v == held && preBody[obj] != held {
				c.pass.Reportf(c.acqPos[obj], "pooled batch %s acquired here is still held at the end of the loop body; release it before the next iteration", obj.Name())
				bodySt[obj] = escaped
			}
		}
	}
	merge(st, preBody, bodySt)
	if guarded != nil {
		st[guarded] = none // loop exited with ok == false: batch is nil
	}
}

func (c *checker) walkRange(s *ast.RangeStmt, st stateMap) {
	c.escapeIn(s.X, st)
	for _, kv := range []ast.Expr{s.Key, s.Value} {
		if kv != nil {
			c.escapeIn(kv, st)
		}
	}
	bodySt := st.clone()
	preBody := bodySt.clone()
	if !c.walkStmts(s.Body.List, bodySt) {
		for obj, v := range bodySt {
			if v == held && preBody[obj] != held {
				c.pass.Reportf(c.acqPos[obj], "pooled batch %s acquired here is still held at the end of the loop body; release it before the next iteration", obj.Name())
				bodySt[obj] = escaped
			}
		}
	}
	merge(st, preBody, bodySt)
}

// assign is the acquisition, aliasing and overwrite logic.
func (c *checker) assign(lhs, rhs []ast.Expr, st stateMap) {
	// b, ok := cur.NextBatch()
	if len(rhs) == 1 && len(lhs) == 2 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && c.isNextBatch(call) {
			c.escapeIn(call, st)
			bobj, okobj := c.lhsObj(lhs[0]), c.lhsObj(lhs[1])
			if bobj == nil {
				return
			}
			c.overwriteCheck(bobj, lhs[0].Pos(), st)
			if c.isViewCursor(call) {
				st[bobj] = none // view batches: Release is a no-op by contract
				return
			}
			st[bobj] = held
			c.acqPos[bobj] = lhs[0].Pos()
			if okobj != nil {
				c.okPairs[okobj] = bobj
			}
			return
		}
	}
	if len(rhs) == 1 && len(lhs) != 1 {
		c.escapeIn(rhs[0], st)
		for _, l := range lhs {
			if obj := c.lhsObj(l); obj != nil {
				c.overwriteCheck(obj, l.Pos(), st)
				st[obj] = none
			}
		}
		return
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		r := ast.Unparen(rhs[i])
		lobj := c.lhsObj(l)
		if lobj == nil {
			// Stores through fields, slices and maps hand the value
			// off; the target chain itself is only read.
			c.escapeIn(r, st)
			continue
		}
		c.overwriteCheck(lobj, l.Pos(), st)
		if call, ok := r.(*ast.CallExpr); ok {
			switch {
			case analysis.CalleePkgFunc(c.pass, call, relPath, "NewBatch") || analysis.CalleePkgFunc(c.pass, call, relPath, "NewBatchSized"):
				c.escapeIn(call, st)
				st[lobj] = held
				c.acqPos[lobj] = l.Pos()
				continue
			case isScanCall(call):
				c.escapeIn(call, st)
				c.viewCursors[lobj] = true
				st[lobj] = none
				continue
			}
		}
		if id, ok := r.(*ast.Ident); ok {
			if robj := c.pass.TypesInfo.Uses[id]; robj != nil && st[robj] != none {
				st[robj] = escaped // aliased: ownership is ambiguous from here on
			}
		} else {
			c.escapeIn(r, st)
		}
		st[lobj] = none
	}
}

// overwriteCheck flags assignment over a definitely-held batch — the
// leak where a loop pulls the next batch without releasing the
// previous one.
func (c *checker) overwriteCheck(obj types.Object, pos token.Pos, st stateMap) {
	if st[obj] == held {
		c.pass.Reportf(pos, "pooled batch %s overwritten while still held; release it before reassigning", obj.Name())
		st[obj] = escaped
	}
}

// condGuard decodes the comma-ok and nil-check idioms: `ok`, `!ok`,
// `b == nil`, `b != nil`. thenHeld reports whether the guarded batch
// is live on the true branch.
func (c *checker) condGuard(cond ast.Expr) (obj types.Object, thenHeld, ok bool) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.Ident:
		if b, found := c.okPairs[c.pass.TypesInfo.Uses[e]]; found {
			return b, true, true
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			if id, isIdent := ast.Unparen(e.X).(*ast.Ident); isIdent {
				if b, found := c.okPairs[c.pass.TypesInfo.Uses[id]]; found {
					return b, false, true
				}
			}
		}
	case *ast.BinaryExpr:
		if e.Op != token.EQL && e.Op != token.NEQ {
			return nil, false, false
		}
		x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
		if isNil(y) {
			if id, isIdent := x.(*ast.Ident); isIdent {
				if o := c.pass.TypesInfo.Uses[id]; o != nil && analysis.IsNamed(o.Type(), relPath, "Batch") {
					return o, e.Op == token.NEQ, true
				}
			}
		}
	}
	return nil, false, false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// releaseTarget returns the tracked identifier of a b.Release() call,
// or nil.
func (c *checker) releaseTarget(call *ast.CallExpr) types.Object {
	sel, recv := analysis.MethodCall(c.pass, call)
	if sel == nil || sel.Sel.Name != "Release" || !analysis.IsNamed(recv, relPath, "Batch") {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return c.pass.TypesInfo.Uses[id]
}

// isGovCheck matches the abort checkpoints: the methods
// Check/CheckResident on *exec.Governor. These are the only calls that
// unwind during normal (governed) operation, so they are where the
// held-across-abort rule applies.
func (c *checker) isGovCheck(call *ast.CallExpr) bool {
	sel, recv := analysis.MethodCall(c.pass, call)
	if sel == nil || recv == nil {
		return false
	}
	name := sel.Sel.Name
	return (name == "Check" || name == "CheckResident") && analysis.IsNamed(recv, execPath, "Governor")
}

// isNextBatch matches calls returning (*rel.Batch, bool) through a
// method named NextBatch.
func (c *checker) isNextBatch(call *ast.CallExpr) bool {
	sel, _ := analysis.MethodCall(c.pass, call)
	if sel == nil || sel.Sel.Name != "NextBatch" {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	tuple, ok := tv.Type.(*types.Tuple)
	return ok && tuple.Len() == 2 && analysis.IsNamed(tuple.At(0).Type(), relPath, "Batch")
}

// isViewCursor reports whether the NextBatch receiver traces to a
// BatchScan/BatchScanSized cursor — view-batch provenance.
func (c *checker) isViewCursor(call *ast.CallExpr) bool {
	sel, _ := analysis.MethodCall(c.pass, call)
	if sel == nil {
		return false
	}
	if inner, ok := ast.Unparen(sel.X).(*ast.CallExpr); ok && isScanCall(inner) {
		return true // r.BatchScan().NextBatch()
	}
	root := analysis.RootIdent(sel.X)
	return root != nil && c.viewCursors[c.pass.TypesInfo.Uses[root]]
}

// isScanCall matches the view-batch sources BatchScan and
// BatchScanSized.
func isScanCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "BatchScan" || sel.Sel.Name == "BatchScanSized")
}

// lhsObj resolves an assignable identifier, skipping blanks and
// non-identifier targets.
func (c *checker) lhsObj(l ast.Expr) types.Object {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// escapeIn escapes every tracked identifier handed off inside the
// node: call arguments, aliases, closure captures. Reading through a
// method receiver (b.Len(), b.Col(i)) is not a handoff and keeps the
// batch tracked; a closure body escapes everything it mentions, since
// its execution is not on this lexical path.
func (c *checker) escapeIn(n ast.Node, st stateMap) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			for _, a := range x.Args {
				c.escapeIn(a, st)
			}
			switch fun := x.Fun.(type) {
			case *ast.SelectorExpr:
				// Method receiver: a read, not a transfer. Calls nested
				// in the receiver chain still get their args scanned.
				if inner, ok := ast.Unparen(fun.X).(*ast.CallExpr); ok {
					c.escapeIn(inner, st)
				}
			default:
				c.escapeIn(fun, st)
			}
			return false
		case *ast.FuncLit:
			c.escapeAll(x, st)
			return false
		case *ast.Ident:
			c.escapeObj(x, st)
		}
		return true
	})
}

// escapeAll escapes every tracked identifier in the node, receivers
// included — for regions the walker does not interpret.
func (c *checker) escapeAll(n ast.Node, st stateMap) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			c.escapeObj(id, st)
		}
		return true
	})
}

func (c *checker) escapeObj(id *ast.Ident, st stateMap) {
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
		if _, tracked := st[obj]; tracked {
			st[obj] = escaped
		}
	}
}
