package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// obsretain guards the observer ownership contract (DESIGN.md §13,
// core.Observer): every slice reachable from an observer callback's
// parameters — Epoch.Jobs, Epoch.Rates, the *Epoch itself, the *Result
// handed to ObserveDone — is engine-owned and reused. The reference engine
// rewrites the epoch buffers on the next step; pooled workspaces recycle
// Result slices into the next run. An observer that stores such a slice
// (or a struct value that embeds one) reads torn data later — the same
// cross-run contamination poolput exists to catch, except here it hides
// behind an interface call. The rule is mechanical: copy or drop.
//
// Concretely, inside any method named ObserveArrival, ObserveEpoch,
// ObserveCompletion or ObserveDone, an assignment whose target outlives
// the call (a field, a package-level variable, an element of either) must
// not alias callback-parameter memory:
//
//   - scalar reads (e.Start, e.Alive, e.Jobs[i], res.Flow[j]) are allowed;
//   - element copies are allowed — the append(dst[:0], src...) spread
//     idiom and copy(dst, src);
//   - storing the parameter, one of its slice fields, a reslice of one, a
//     dereferenced struct copy (*e still aliases e.Jobs), or an append of
//     any of those as a single element, is flagged.
//
// Aliasing through an intermediate local is out of scope, as in poolput.
var obsretainAnalyzer = &Analyzer{
	Name: "obsretain",
	Doc:  "observer callback stores an engine-owned slice instead of copying",
	Scope: scopePkgs(
		"internal",
		"cmd",
	),
	Run: runObsretain,
}

// observeNames are the core.Observer callback methods whose parameters are
// engine-owned.
var observeNames = map[string]bool{
	"ObserveArrival":    true,
	"ObserveEpoch":      true,
	"ObserveCompletion": true,
	"ObserveDone":       true,
}

func runObsretain(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !observeNames[fd.Name.Name] {
				continue
			}
			roots := engineOwnedParams(p, fd)
			if len(roots) == 0 {
				continue
			}
			checkObserveBody(p, fd, roots)
		}
	}
}

// engineOwnedParams collects the callback parameters that can alias
// engine memory: anything whose type reaches a slice or map (the *Epoch,
// the *Result; plain scalars like t, job and flow never qualify). They are
// keyed by object, so a local that shadows one is not engine-owned.
func engineOwnedParams(p *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	roots := make(map[types.Object]bool)
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := p.ObjectOf(name)
			if t := p.TypeOf(field.Type); obj != nil && t != nil && holdsSlices(t, make(map[types.Type]bool)) {
				roots[obj] = true
			}
		}
	}
	return roots
}

func checkObserveBody(p *Pass, fd *ast.FuncDecl, roots map[types.Object]bool) {
	owned := func(id *ast.Ident) bool { return roots[p.ObjectOf(id)] }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !retainsEngineSlice(p, owned, rhs) {
				continue
			}
			if isFuncLocal(p, fd, as.Lhs[i]) {
				continue
			}
			p.Reportf(as.Pos(), "%s stores engine-owned %s into %s: epoch and result slices are reused by the engine — copy the elements (append(dst[:0], src...)) or drop them, or //rrlint:ignore obsretain <reason>",
				fd.Name.Name, p.ExprString(rhs), p.ExprString(as.Lhs[i]))
		}
		return true
	})
}

// retainsEngineSlice reports whether evaluating e yields a value that
// aliases memory reachable from an owned identifier: an engine-owned
// callback parameter here, a tainted local in wsescape.
func retainsEngineSlice(p *Pass, owned func(*ast.Ident) bool, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return retainsEngineSlice(p, owned, e.X)
	case *ast.UnaryExpr:
		// &e, &e.Jobs — taking an address retains whatever the operand
		// aliases.
		return retainsEngineSlice(p, owned, e.X)
	case *ast.CompositeLit:
		// A literal embedding a retaining expression (Rec{jobs: e.Jobs})
		// carries the alias with it.
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if retainsEngineSlice(p, owned, elt) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// append(dst, x) stores x itself; append(dst, src...) copies the
		// elements and is the sanctioned idiom. Other calls produce fresh
		// values as far as a syntactic check can tell.
		id, ok := e.Fun.(*ast.Ident)
		if ok && id.Name == "append" && isBuiltinObj(p.ObjectOf(id)) {
			if e.Ellipsis != token.NoPos {
				return false
			}
			for _, a := range e.Args[1:] {
				if retainsEngineSlice(p, owned, a) {
					return true
				}
			}
		}
		return false
	default:
		if !rootedIn(owned, e) {
			return false
		}
		t := p.TypeOf(e)
		return t != nil && holdsSlices(t, make(map[types.Type]bool))
	}
}

// isBuiltinObj reports whether obj is a predeclared builtin (append). A nil
// object is treated the same: the identifier cannot be a user function.
func isBuiltinObj(obj types.Object) bool {
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// rootedIn walks selector/index/slice/deref chains down to their base
// identifier and reports whether it is owned.
func rootedIn(owned func(*ast.Ident) bool, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return owned(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// isFuncLocal reports whether the assignment target lives only inside the
// method (a local variable, possibly indexed), so storing an alias in it
// cannot outlive the callback. Fields (selectors) are never local: the
// receiver outlives the call by definition.
func isFuncLocal(p *Pass, fd *ast.FuncDecl, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return true
			}
			obj := p.ObjectOf(x)
			return obj != nil && obj.Pos() >= fd.Pos() && obj.Pos() <= fd.End()
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
