package lint

import (
	"fmt"
	"path/filepath"
	"strings"
)

// A suppression is one valid //rrlint:ignore comment. It silences
// diagnostics of the named check on its own line and on the line directly
// below (so it works both as an end-of-line comment and as a standalone
// comment above the offending statement).
type suppression struct {
	file  string // module-root-relative path
	line  int
	check string
}

// collectSuppressions scans every comment of every file for
// //rrlint:ignore directives. Valid ones become suppressions; malformed
// ones (missing check name, unknown check name, or missing reason) are
// returned as diagnostics under the "rrlint" check — a suppression that
// does not say which check it silences and why is itself a finding, so
// directives cannot silently rot.
func collectSuppressions(m *Module, pkgs []*Package, known map[string]bool) ([]suppression, []Diagnostic) {
	var sups []suppression
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, "rrlint:ignore")
					if !ok {
						continue
					}
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // e.g. rrlint:ignoreXYZ — not a directive
					}
					pos := m.Fset.Position(c.Pos())
					file := pos.Filename
					if rel, err := filepathRel(m.Dir, file); err == nil {
						file = rel
					}
					malformed := func(format string, args ...any) {
						bad = append(bad, Diagnostic{
							Check:   "rrlint",
							File:    file,
							Line:    pos.Line,
							Col:     pos.Column,
							Message: fmt.Sprintf(format, args...),
						})
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						malformed("malformed //rrlint:ignore: missing check name (want //rrlint:ignore <check> <reason>)")
						continue
					}
					check := fields[0]
					if !known[check] {
						malformed("malformed //rrlint:ignore: unknown check %q (known: %s)", check, strings.Join(AnalyzerNames(), ", "))
						continue
					}
					if len(fields) < 2 {
						malformed("malformed //rrlint:ignore %s: a reason is required", check)
						continue
					}
					sups = append(sups, suppression{file: file, line: pos.Line, check: check})
				}
			}
		}
	}
	return sups, bad
}

// suppressed reports whether a valid suppression covers the diagnostic:
// same file and check, on the directive's line or the line below.
func suppressed(sups []suppression, d Diagnostic) bool {
	for _, s := range sups {
		if s.file == d.File && s.check == d.Check && (d.Line == s.line || d.Line == s.line+1) {
			return true
		}
	}
	return false
}

// filepathRel is filepath.Rel with slash-normalized output, so diagnostics
// render identically across platforms.
func filepathRel(base, target string) (string, error) {
	rel, err := filepath.Rel(base, target)
	if err != nil {
		return "", err
	}
	return filepath.ToSlash(rel), nil
}
