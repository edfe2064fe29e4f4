package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// LoadError is a structured package-load failure: which package could not
// be parsed or type-checked, and where its first error is. Drivers render
// it as a positioned finding instead of an opaque exit-2 string, so a
// broken tree points at the broken line.
type LoadError struct {
	Pkg string // import path of the failing package
	Pos string // module-relative file:line:col of the first error ("" when unknown)
	Msg string // the first error's message
	Err error  // the underlying error chain
}

// Error renders the failure for the driver's stderr.
func (e *LoadError) Error() string {
	if e.Pos != "" {
		return fmt.Sprintf("lint: package %s failed to load: %s: %s", e.Pkg, e.Pos, e.Msg)
	}
	return fmt.Sprintf("lint: package %s failed to load: %s", e.Pkg, e.Msg)
}

func (e *LoadError) Unwrap() error { return e.Err }

// Package is one type-checked, non-test package of the module under
// analysis. Files holds the parsed syntax (with comments) that the
// analyzers walk; Types and Info carry the go/types results they consult
// for type-sensitive questions (is this a map? are these floats? which
// package does this identifier come from?).
type Package struct {
	// Path is the import path, e.g. "rrnorm/internal/core".
	Path string
	// Dir is the absolute directory the files were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the loaded module: go.mod metadata plus a lazily populated,
// memoized package loader. Loading deliberately avoids `go list` (rrlint
// must run anywhere the toolchain runs, with an empty go.mod): the module
// path comes from parsing go.mod, module-internal imports are resolved to
// directories by path arithmetic, and everything else (the standard
// library) is type-checked from source via go/importer's source importer.
//
// A Module is not safe for concurrent use.
type Module struct {
	// Path is the module path from go.mod (e.g. "rrnorm").
	Path string
	// Dir is the absolute module root (the directory holding go.mod).
	Dir  string
	Fset *token.FileSet

	std     types.ImporterFrom
	pkgs    map[string]*Package       // module-local packages by import path
	foreign map[string]*types.Package // everything else (stdlib)
	loading map[string]bool           // cycle guard
}

// disableCgo makes the source importer see the pure-Go variant of cgo
// packages (net, os/user, ...), so the whole standard library type-checks
// from source without invoking the cgo tool.
var disableCgo sync.Once

// LoadModule locates go.mod at dir or any parent and returns a Module
// rooted there. No packages are loaded yet; use All, Package or PackageDir.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found in %s or any parent", abs)
		}
		root = parent
	}
	modPath, err := moduleLine(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	disableCgo.Do(func() { build.Default.CgoEnabled = false })
	fset := token.NewFileSet()
	m := &Module{
		Path:    modPath,
		Dir:     root,
		Fset:    fset,
		pkgs:    make(map[string]*Package),
		foreign: make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	m.std = std
	return m, nil
}

// moduleLine extracts the module path from a go.mod file.
func moduleLine(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p == "" {
				break
			}
			return p, nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", path)
}

// All walks the module tree and loads every package outside testdata,
// vendor and hidden directories, returned sorted by import path.
func (m *Module) All() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(m.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != m.Dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := m.PackageDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(a, b int) bool { return pkgs[a].Path < pkgs[b].Path })
	return pkgs, nil
}

// Package loads (or returns the memoized) module-local package by import
// path.
func (m *Module) Package(path string) (*Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	rel, ok := m.relOf(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is not inside module %q", path, m.Path)
	}
	return m.load(path, filepath.Join(m.Dir, filepath.FromSlash(rel)))
}

// PackageDir loads the package in the given directory (which must be
// inside the module). Unlike All it does not skip testdata directories —
// the golden self-tests use it to load the fixture packages.
func (m *Module) PackageDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Dir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: directory %s is outside module root %s", dir, m.Dir)
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.load(path, abs)
}

// relPos renders a token.Position relative to the module root, the form
// diagnostics use.
func (m *Module) relPos(pos token.Position) string {
	file := pos.Filename
	if rel, err := filepathRel(m.Dir, file); err == nil {
		file = rel
	}
	return fmt.Sprintf("%s:%d:%d", file, pos.Line, pos.Column)
}

// relOf maps a module-local import path to a module-root-relative slash
// path ("." for the root package); ok is false for foreign paths.
func (m *Module) relOf(path string) (string, bool) {
	if path == m.Path {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, m.Path+"/"); ok {
		return rest, true
	}
	return "", false
}

// load parses and type-checks the non-test Go files of one directory.
func (m *Module) load(path, dir string) (*Package, error) {
	if m.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			le := &LoadError{Pkg: path, Msg: err.Error(), Err: err}
			var el scanner.ErrorList
			if ok := errors.As(err, &el); ok && len(el) > 0 {
				le.Pos = m.relPos(el[0].Pos)
				le.Msg = el[0].Msg
			}
			return nil, le
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(path, m.Fset, files, info)
	if err != nil {
		// An import of another broken module package surfaces the inner
		// package's structured failure rather than re-wrapping it at the
		// import site.
		var inner *LoadError
		if errors.As(err, &inner) {
			return nil, inner
		}
		le := &LoadError{Pkg: path, Msg: err.Error(), Err: err}
		var te types.Error
		if errors.As(err, &te) {
			le.Pos = m.relPos(te.Fset.Position(te.Pos))
			le.Msg = te.Msg
		}
		return nil, le
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	m.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer.
func (m *Module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.Dir, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths are loaded
// by this Module (so their syntax and Info are retained for analysis),
// everything else is delegated to the source importer.
func (m *Module) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := m.relOf(path); ok {
		p, err := m.Package(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if t, ok := m.foreign[path]; ok {
		return t, nil
	}
	t, err := m.std.ImportFrom(path, srcDir, mode)
	if err != nil {
		return nil, err
	}
	m.foreign[path] = t
	return t, nil
}
