package lint

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func runSuppressFixture(t *testing.T) (*Module, *Result) {
	t.Helper()
	m := loadTestModule(t)
	dir := filepath.Join(m.Dir, "internal", "lint", "testdata", "src", "suppress")
	pkg, err := m.PackageDir(dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var floateq *Analyzer
	for _, a := range Analyzers() {
		if a.Name == "floateq" {
			floateq = a
		}
	}
	res := RunPackages(m, []*Package{pkg}, RunConfig{
		Analyzers:   []*Analyzer{floateq},
		IgnoreScope: true,
	})
	return m, res
}

// TestSuppressionSemantics pins the //rrlint:ignore contract: a
// well-formed directive with the right check name and a reason suppresses
// the finding on its own line or the line below; everything else — wrong
// check name, missing reason, unknown check — leaves the finding standing,
// and malformed directives are themselves diagnosed.
func TestSuppressionSemantics(t *testing.T) {
	_, res := runSuppressFixture(t)

	var floateqDiags, rrlintDiags []Diagnostic
	for _, d := range res.Diagnostics {
		switch d.Check {
		case "floateq":
			floateqDiags = append(floateqDiags, d)
		case "rrlint":
			rrlintDiags = append(rrlintDiags, d)
		default:
			t.Errorf("unexpected check %q in diagnostic %s", d.Check, d)
		}
	}

	// suppressedEOL and suppressedAbove silence one finding each.
	if res.Suppressed != 2 {
		t.Errorf("Suppressed = %d, want 2 (suppressedEOL + suppressedAbove)", res.Suppressed)
	}

	// wrongCheck, missingReason and unknownCheck findings all survive.
	if len(floateqDiags) != 3 {
		t.Errorf("got %d surviving floateq diagnostics, want 3: %s", len(floateqDiags), diagList(floateqDiags))
	}

	// The two malformed directives are flagged at the directive itself.
	if len(rrlintDiags) != 2 {
		t.Fatalf("got %d rrlint diagnostics, want 2: %s", len(rrlintDiags), diagList(rrlintDiags))
	}
	var sawReason, sawUnknown bool
	for _, d := range rrlintDiags {
		switch {
		case strings.Contains(d.Message, "a reason is required"):
			sawReason = true
		case strings.Contains(d.Message, "unknown check"):
			sawUnknown = true
			if !strings.Contains(d.Message, `"floateqq"`) {
				t.Errorf("unknown-check diagnostic should name the typo'd check: %s", d)
			}
		default:
			t.Errorf("unrecognized rrlint diagnostic: %s", d)
		}
	}
	if !sawReason {
		t.Error("missing-reason directive was not diagnosed")
	}
	if !sawUnknown {
		t.Error("unknown-check directive was not diagnosed")
	}

	// Valid suppressions must not leave findings behind on their lines:
	// every surviving floateq diagnostic sits strictly below line 15
	// (suppressedEOL and suppressedAbove both live above it).
	for _, d := range floateqDiags {
		if d.Line <= 15 {
			t.Errorf("finding in a suppressed function survived: %s", d)
		}
	}
}

// TestResultJSON pins the machine-readable shape consumed by CI tooling:
// the suppressed count rides along with the diagnostics, and an empty
// diagnostic list marshals as [] rather than null.
func TestResultJSON(t *testing.T) {
	_, res := runSuppressFixture(t)

	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded struct {
		Module      string            `json:"module"`
		Packages    int               `json:"packages"`
		Diagnostics []json.RawMessage `json:"diagnostics"`
		Suppressed  int               `json:"suppressed"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if decoded.Suppressed != 2 {
		t.Errorf("json suppressed = %d, want 2", decoded.Suppressed)
	}
	if len(decoded.Diagnostics) != len(res.Diagnostics) {
		t.Errorf("json carries %d diagnostics, result has %d", len(decoded.Diagnostics), len(res.Diagnostics))
	}
	if decoded.Module != "rrnorm" {
		t.Errorf("json module = %q, want %q", decoded.Module, "rrnorm")
	}

	empty := Result{Module: "rrnorm", Diagnostics: []Diagnostic{}}
	rawEmpty, err := json.Marshal(empty)
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	if !strings.Contains(string(rawEmpty), `"diagnostics":[]`) {
		t.Errorf("empty diagnostics should marshal as [], got %s", rawEmpty)
	}
}
