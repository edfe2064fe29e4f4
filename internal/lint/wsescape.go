package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// wsescape guards the workspace ownership rule (DESIGN.md §12, §16). The
// *core.Result returned by core.RunWS or fast.RunWS when a reusable
// workspace is passed (and by Workspace.StartRun) is workspace-owned:
// every slice it references is overwritten by that workspace's next run
// and recycled by PutWorkspace. Such a value may be consumed in place or
// deep-copied with Clone; it must not outlive the run.
//
// The analyzer walks each function once, in source order, and keeps the
// set of tainted locals with the workspace expression that owns each. A
// local becomes tainted when an assignment binds it to slot 0 of a seed
// call, or to an expression that retains a tainted local (obsretain's
// retention rule: the local itself, a sliceful field, a reslice, a
// composite literal or single-element append embedding one). Any other
// assignment — a Clone(), a scalar read, any call — clears the taint.
// Control flow is ignored: a launder on one branch only, or taint carried
// around a loop, goes unreported (false negatives over noise). A violation
// is any point where a tainted value can outlive the run:
//
//   - a store to a field, package-level variable, or dereferenced pointer
//     target (anything obsretain's locality rule calls non-local);
//   - a store into a container element (m[k] = res, arr[i] = res.Flow) —
//     even a local container accumulates aliases of the same reused
//     buffers, one per iteration, all torn by the next run;
//   - a channel send;
//   - a goroutine launched with a tainted argument or capturing a tainted
//     local (the goroutine races the workspace's next run);
//   - a return of a tainted value after a core.PutWorkspace (plain or
//     deferred) of the same workspace expression that produced it: the
//     caller receives pooled memory.
//
// Passing a tainted value to an ordinary (synchronous) call is allowed —
// that is consumption, the batch.Run(consume) pattern.
var wsescapeAnalyzer = &Analyzer{
	Name:  "wsescape",
	Doc:   "workspace-owned simulation result outlives the workspace (store/send/goroutine/return past PutWorkspace without Clone)",
	Scope: func(modPath, pkgPath string) bool { return true },
	Run:   runWsescape,
}

func runWsescape(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &wsWalk{p: p, fd: fd, taint: make(map[types.Object]string), released: make(map[string]bool)}
				ast.Inspect(fd.Body, w.visit)
			}
		}
	}
}

// wsWalk is the state of one function's source-order walk.
type wsWalk struct {
	p        *Pass
	fd       *ast.FuncDecl
	taint    map[types.Object]string // tainted local → owning workspace expression
	seeded   []string                // workspace expressions in first-seed order
	released map[string]bool         // workspace expressions passed to core.PutWorkspace so far
}

// seedWS returns the workspace expression owning slot 0 of e's result
// when e is a seed call — {core,fast}.RunWS with a non-nil workspace
// argument, or a Workspace.StartRun method call — and "" otherwise. A
// workspace seen for the first time is appended to w.seeded.
func (w *wsWalk) seedWS(e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	var ws ast.Expr
	switch sel.Sel.Name {
	case "RunWS":
		// The 4th argument is the workspace; a literal nil means the
		// engine allocates a private one and the caller owns the result.
		qual, ok := sel.X.(*ast.Ident)
		if !ok || len(call.Args) != 4 || isNilExpr(call.Args[3]) {
			return ""
		}
		if path := w.p.pkgNameOf(qual); path != w.p.Module.Path+"/internal/core" && path != w.p.Module.Path+"/internal/fast" {
			return ""
		}
		ws = call.Args[3]
	case "StartRun":
		if !isWorkspacePtr(w.p.TypeOf(sel.X), w.p.Module.Path) {
			return ""
		}
		ws = sel.X
	default:
		return ""
	}
	key := w.p.ExprString(ws)
	if !slices.Contains(w.seeded, key) {
		w.seeded = append(w.seeded, key)
	}
	return key
}

// isWorkspacePtr reports whether t is *core.Workspace of this module.
func isWorkspacePtr(t types.Type, modPath string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Workspace" && obj.Pkg() != nil &&
		obj.Pkg().Path() == modPath+"/internal/core"
}

func isNilExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// source returns the first-seeded workspace whose memory e aliases, or "".
func (w *wsWalk) source(e ast.Expr) string {
	for _, ws := range w.seeded {
		if retainsEngineSlice(w.p, func(id *ast.Ident) bool { return w.taint[w.p.ObjectOf(id)] == ws }, e) {
			return ws
		}
	}
	return ""
}

// bind records that lhs now holds memory owned by ws ("" clears it).
func (w *wsWalk) bind(lhs ast.Expr, ws string) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	if obj := w.p.ObjectOf(id); obj != nil && ws != "" {
		w.taint[obj] = ws
	} else {
		delete(w.taint, obj)
	}
}

func (w *wsWalk) visit(n ast.Node) bool {
	p, name := w.p, w.fd.Name.Name
	switch n := n.(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "PutWorkspace" && len(n.Args) == 1 {
			if qual, ok := sel.X.(*ast.Ident); ok && p.pkgNameOf(qual) == p.Module.Path+"/internal/core" {
				w.released[p.ExprString(n.Args[0])] = true
			}
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			// res, err := RunWS(...): only the *Result (slot 0) is owned.
			ws := w.seedWS(n.Rhs[0])
			for _, lhs := range n.Lhs {
				w.bind(lhs, ws)
				ws = ""
			}
			return true
		}
		for i, rhs := range n.Rhs {
			lhs, ws := n.Lhs[i], w.source(rhs)
			_, elem := ast.Unparen(lhs).(*ast.IndexExpr)
			switch {
			case !elem && isFuncLocal(p, w.fd, lhs):
				w.bind(lhs, ws)
			case ws != "":
				kind := "non-local target"
				if elem {
					kind = "container element"
				}
				p.Reportf(n.Pos(), "%s stores workspace-owned %s into %s (%s): the slices it references are overwritten by the workspace's next run — use Clone() or copy the fields you need, or //rrlint:ignore wsescape <reason>",
					name, p.ExprString(rhs), p.ExprString(lhs), kind)
			}
		}
	case *ast.SendStmt:
		if w.source(n.Value) != "" {
			p.Reportf(n.Pos(), "%s sends workspace-owned %s on a channel: the receiver outlives this run's buffers — send a Clone()",
				name, p.ExprString(n.Value))
		}
	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			if w.source(arg) != "" {
				p.Reportf(n.Pos(), "goroutine in %s receives workspace-owned %s: it races the workspace's next run — pass a Clone()",
					name, p.ExprString(arg))
			}
		}
		if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
			// The closure body is walked after this point, so every tainted
			// identifier in it is a capture from the enclosing scope.
			reported := make(map[types.Object]bool)
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok || reported[p.ObjectOf(id)] || w.source(id) == "" {
					return true
				}
				reported[p.ObjectOf(id)] = true
				p.Reportf(n.Pos(), "goroutine in %s captures workspace-owned %s: it races the workspace's next run — capture a Clone()",
					name, id.Name)
				return true
			})
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if ws := w.source(res); ws != "" && w.released[ws] {
				p.Reportf(n.Pos(), "%s returns workspace-owned %s past core.PutWorkspace: the caller receives pooled memory already back in circulation — return a Clone()",
					name, p.ExprString(res))
			}
		}
	}
	return true
}
