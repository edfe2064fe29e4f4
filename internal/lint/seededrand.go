package lint

import (
	"go/ast"
	"go/token"
)

// seededrand keeps workload generation reproducible: every random draw in
// the generator packages must flow through a *rand.Rand constructed from an
// explicit seed (a parameter or spec field), never through math/rand's
// global source or a wall-clock seed. The experiment goldens (E1–E28) and
// the serve cache's byte-keyed fingerprints are only stable because the
// same (spec, seed) pair always yields the same instance.
var seededrandAnalyzer = &Analyzer{
	Name: "seededrand",
	Doc:  "math/rand use not derived from an explicit seed in workload generation",
	Scope: scopePkgs(
		"internal/workload",
		"internal/bcast",
	),
	Run: runSeededrand,
}

// randConstructors are the math/rand(/v2) functions that build a source or
// generator from explicit state rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
	"NewSource":  true,
}

func runSeededrand(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun := call.Fun
			// Unwrap generic instantiations like rand.N[time.Duration](...).
			switch ix := fun.(type) {
			case *ast.IndexExpr:
				fun = ix.X
			case *ast.IndexListExpr:
				fun = ix.X
			}
			sel, ok := fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			qual, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg := p.pkgNameOf(qual)
			if pkg != "math/rand" && pkg != "math/rand/v2" {
				return true
			}
			name := sel.Sel.Name
			if !randConstructors[name] {
				p.Reportf(call.Pos(), "%s.%s draws from the global unseeded source; thread a *rand.Rand derived from an explicit seed parameter", pkg, name)
				return true
			}
			if pos, ok := wallClockArg(p, call); ok {
				p.Reportf(pos, "%s.%s seeds from the wall clock; derive the seed from an explicit parameter so runs are reproducible", pkg, name)
			}
			return true
		})
	}
}

// wallClockArg reports a time.Now reference inside the constructor's
// arguments. Nested rand constructor calls are skipped — they are visited
// (and reported) on their own, so a wall-clock seed is diagnosed exactly
// once, at the innermost constructor that consumes it.
func wallClockArg(p *Pass, call *ast.CallExpr) (pos token.Pos, ok bool) {
	for _, arg := range call.Args {
		var found *ast.SelectorExpr
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			if inner, isCall := n.(*ast.CallExpr); isCall && inner != call {
				if sel, isSel := inner.Fun.(*ast.SelectorExpr); isSel {
					if q, isID := sel.X.(*ast.Ident); isID {
						pkg := p.pkgNameOf(q)
						if (pkg == "math/rand" || pkg == "math/rand/v2") && randConstructors[sel.Sel.Name] {
							return false // reported at the inner constructor
						}
					}
				}
			}
			sel, isSel := n.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			if q, isID := sel.X.(*ast.Ident); isID && p.pkgNameOf(q) == "time" && sel.Sel.Name == "Now" {
				found = sel
				return false
			}
			return true
		})
		if found != nil {
			return found.Pos(), true
		}
	}
	return token.NoPos, false
}
