package lint

import (
	"go/ast"
	"go/types"
)

// Index is the cross-package analysis state shared by every Pass of one
// RunPackages call: the package each function was declared in and the
// memoized per-function IRs. IRs are built lazily on first use, which is
// what keeps a whole-module rrlint run inside its time budget: analyzers
// only pay for the functions they inspect.
type Index struct {
	declPk map[*ast.FuncDecl]*Package
	irs    map[*ast.FuncDecl]*FuncIR
}

// newIndex records where each function of the packages is declared; IRs
// are deferred until an analyzer asks.
func newIndex(pkgs []*Package) *Index {
	ix := &Index{
		declPk: make(map[*ast.FuncDecl]*Package),
		irs:    make(map[*ast.FuncDecl]*FuncIR),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if _, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					ix.declPk[fd] = pkg
				}
			}
		}
	}
	return ix
}

// IR returns the (memoized) dataflow IR for a function declared in one of
// the run's packages; functions from elsewhere build an untyped IR.
func (ix *Index) IR(fd *ast.FuncDecl) *FuncIR {
	if ir, ok := ix.irs[fd]; ok {
		return ir
	}
	var info *types.Info
	if pkg, ok := ix.declPk[fd]; ok {
		info = pkg.Info
	}
	ir := BuildFuncIR(fd, info)
	ix.irs[fd] = ir
	return ir
}

// stripIndex unwraps generic instantiations (f[T](...)).
func stripIndex(e ast.Expr) ast.Expr {
	switch ix := e.(type) {
	case *ast.IndexExpr:
		return ix.X
	case *ast.IndexListExpr:
		return ix.X
	}
	return e
}
