package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// testModule loads the module once per test binary: the expensive part is
// type-checking the standard library from source, which every test shares.
var (
	testModOnce sync.Once
	testMod     *Module
	testModErr  error
)

func loadTestModule(t *testing.T) *Module {
	t.Helper()
	testModOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			testModErr = err
			return
		}
		testMod, testModErr = LoadModule(wd)
	})
	if testModErr != nil {
		t.Fatalf("loading module: %v", testModErr)
	}
	return testMod
}

// want is one expectation parsed from a `// want "regexp"` comment in a
// fixture file: a diagnostic must be reported at exactly this file:line
// whose message matches the pattern.
type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantRx = regexp.MustCompile(`want "([^"]+)"`)

func parseWants(t *testing.T, m *Module, pkg *Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, match := range wantRx.FindAllStringSubmatch(c.Text, -1) {
					rx, err := regexp.Compile(match[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", match[1], err)
					}
					pos := m.Fset.Position(c.Pos())
					file, err := filepathRel(m.Dir, pos.Filename)
					if err != nil {
						t.Fatalf("relativizing %s: %v", pos.Filename, err)
					}
					wants = append(wants, want{file: file, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// TestGoldenDiagnostics pins each analyzer's hits and non-hits against its
// fixture package in testdata/src/<name>: every `// want` line must
// produce a matching diagnostic, and every diagnostic must be claimed by a
// want — so both false negatives and false positives fail the test.
func TestGoldenDiagnostics(t *testing.T) {
	m := loadTestModule(t)
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join(m.Dir, "internal", "lint", "testdata", "src", a.Name)
			pkg, err := m.PackageDir(dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			res := RunPackages(m, []*Package{pkg}, RunConfig{
				Analyzers:   []*Analyzer{a},
				IgnoreScope: true,
			})
			wants := parseWants(t, m, pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want annotations (no positive cases)", dir)
			}
			claimed := make([]bool, len(res.Diagnostics))
			for _, w := range wants {
				found := false
				for i, d := range res.Diagnostics {
					if claimed[i] || d.File != w.file || d.Line != w.line || !w.rx.MatchString(d.Message) {
						continue
					}
					claimed[i] = true
					found = true
					break
				}
				if !found {
					t.Errorf("%s:%d: no diagnostic matching %q (got %s)", w.file, w.line, w.rx, diagList(res.Diagnostics))
				}
			}
			for i, d := range res.Diagnostics {
				if !claimed[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

func diagList(ds []Diagnostic) string {
	if len(ds) == 0 {
		return "no diagnostics"
	}
	s := ""
	for _, d := range ds {
		s += fmt.Sprintf("\n  %s", d)
	}
	return s
}

// TestTreeIsLintClean runs the full suite with real scopes over the whole
// module exactly as `make verify` does: the tree-wide audit fixed every
// finding, and this keeps it that way. A failure here means newly added
// code broke a determinism, cancellation or ownership invariant (or needs
// a justified //rrlint:ignore).
func TestTreeIsLintClean(t *testing.T) {
	m := loadTestModule(t)
	pkgs, err := m.All()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	res := RunPackages(m, pkgs, RunConfig{})
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if len(pkgs) < 30 {
		t.Errorf("walked only %d packages; the module walk looks broken", len(pkgs))
	}
}
