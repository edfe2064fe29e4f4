// Package lint is rrnorm's project-specific static-analysis layer. It
// mechanically enforces the invariants the repo's reproducibility guarantee
// rests on — bit-deterministic simulation, cooperative cancellation and
// float-comparison discipline — so new policy and engine code cannot
// silently break them (DESIGN.md §11 catalogs the analyzers and the
// invariant each one guards).
//
// The driver is stdlib-only (go/parser, go/ast, go/types and go/importer;
// go.mod stays dependency-free): it parses go.mod for the module path,
// resolves the module's import graph itself instead of shelling out to
// `go list`, type-checks every package, and runs each analyzer over the
// packages in its scope. Diagnostics carry precise file:line:col positions;
// intentional violations are silenced with
//
//	//rrlint:ignore <check> <reason>
//
// on the offending line or the line above — the check name must match and
// the reason is mandatory, so every suppression documents itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned relative to the module
// root. The JSON form is what `rrlint -json` emits.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check. Scope decides which packages it inspects
// (by import path, given the module path); Run reports findings through
// the Pass.
type Analyzer struct {
	Name  string
	Doc   string
	Scope func(modPath, pkgPath string) bool
	Run   func(*Pass)
}

// Analyzers returns the full analyzer suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		mapiterAnalyzer,
		seededrandAnalyzer,
		floateqAnalyzer,
		ctxpollAnalyzer,
		exportsyncAnalyzer,
		poolputAnalyzer,
		obsretainAnalyzer,
		wsescapeAnalyzer,
	}
}

// AnalyzerNames returns the known check names, sorted.
func AnalyzerNames() []string {
	names := make([]string, 0, len(Analyzers()))
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// scopePkgs builds a Scope that matches the given module-relative package
// paths and their subpackages.
func scopePkgs(rels ...string) func(modPath, pkgPath string) bool {
	return func(modPath, pkgPath string) bool {
		for _, rel := range rels {
			full := modPath + "/" + rel
			if pkgPath == full || strings.HasPrefix(pkgPath, full+"/") {
				return true
			}
		}
		return false
	}
}

// Pass is one (analyzer, package) execution.
type Pass struct {
	Module *Module
	Pkg    *Package

	check string
	out   *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepathRel(p.Module.Dir, file); err == nil {
		file = rel
	}
	*p.out = append(*p.out, Diagnostic{
		Check:   p.check,
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// ExprString renders an expression to source text (used for the syntactic
// operand matching in the tie-break idiom).
func (p *Pass) ExprString(e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, p.Module.Fset, e); err != nil {
		return ""
	}
	return sb.String()
}

// pkgNameOf resolves the package an identifier refers to when it is a
// package qualifier (e.g. the `rand` in rand.Float64), or "" otherwise.
func (p *Pass) pkgNameOf(id *ast.Ident) string {
	if pn, ok := p.ObjectOf(id).(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// Result is a whole run's outcome — the JSON document `rrlint -json`
// prints. Suppressed counts diagnostics silenced by valid
// //rrlint:ignore comments, which do not appear in Diagnostics.
type Result struct {
	Module      string       `json:"module"`
	Packages    int          `json:"packages"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	Suppressed  int          `json:"suppressed"`
}

// RunConfig selects the analyzers for a run. IgnoreScope runs every
// analyzer on every package regardless of its Scope — the golden
// self-tests use it to point an analyzer at its fixture package.
type RunConfig struct {
	Analyzers   []*Analyzer
	IgnoreScope bool
}

// RunPackages executes the configured analyzers over the given packages,
// applies suppressions and returns the sorted result.
func RunPackages(m *Module, pkgs []*Package, cfg RunConfig) *Result {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !cfg.IgnoreScope && !a.Scope(m.Path, pkg.Path) {
				continue
			}
			pass := &Pass{Module: m, Pkg: pkg, check: a.Name, out: &raw}
			a.Run(pass)
		}
	}
	sups, malformed := collectSuppressions(m, pkgs, known)
	res := &Result{Module: m.Path, Packages: len(pkgs), Diagnostics: []Diagnostic{}}
	for _, d := range raw {
		if suppressed(sups, d) {
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	res.Diagnostics = append(res.Diagnostics, malformed...)
	sort.Slice(res.Diagnostics, func(a, b int) bool {
		x, y := res.Diagnostics[a], res.Diagnostics[b]
		if x.File != y.File {
			return x.File < y.File
		}
		if x.Line != y.Line {
			return x.Line < y.Line
		}
		if x.Col != y.Col {
			return x.Col < y.Col
		}
		if x.Check != y.Check {
			return x.Check < y.Check
		}
		return x.Message < y.Message
	})
	return res
}

// Run loads the module rooted at (or above) dir, analyzes every package
// and returns the result.
func Run(dir string, cfg RunConfig) (*Result, error) {
	m, err := LoadModule(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := m.All()
	if err != nil {
		return nil, err
	}
	return RunPackages(m, pkgs, cfg), nil
}
