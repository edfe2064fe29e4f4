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

	// suppressedEOL and suppressedAbove silence one finding each; the
	// function-level directive on funcLevel silences both findings in its
	// body at once.
	if res.Suppressed != 4 {
		t.Errorf("Suppressed = %d, want 4 (suppressedEOL + suppressedAbove + 2 in funcLevel)", res.Suppressed)
	}

	// wrongCheck, missingReason, unknownCheck and funcLevelWrongCheck
	// findings all survive.
	if len(floateqDiags) != 4 {
		t.Errorf("got %d surviving floateq diagnostics, want 4: %s", len(floateqDiags), diagList(floateqDiags))
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
	if decoded.Suppressed != 4 {
		t.Errorf("json suppressed = %d, want 4", decoded.Suppressed)
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

// TestDataflowSuppression pins //rrlint:ignore semantics for the
// dataflow analyzers (wsescape, gocapture) over the suppressdf
// fixture: statement-level directives silence exactly their own line pair,
// doc-comment directives silence the whole function, and each analyzer's
// unsuppressed sibling finding survives — so the directives are neither
// ignored nor over-broad for the IR-based checks.
func TestDataflowSuppression(t *testing.T) {
	m := loadTestModule(t)
	dir := filepath.Join(m.Dir, "internal", "lint", "testdata", "src", "suppressdf")
	pkg, err := m.PackageDir(dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var dataflow []*Analyzer
	for _, a := range Analyzers() {
		switch a.Name {
		case "wsescape", "gocapture":
			dataflow = append(dataflow, a)
		}
	}
	res := RunPackages(m, []*Package{pkg}, RunConfig{
		Analyzers:   dataflow,
		IgnoreScope: true,
	})

	// 3 wsescape (1 statement + 2 function-level) + 2 gocapture (statement
	// in the closure + function-level on launchFuncLevel).
	if res.Suppressed != 5 {
		t.Errorf("Suppressed = %d, want 5", res.Suppressed)
	}

	// One unsuppressed sibling per analyzer must survive.
	survivors := map[string]int{}
	for _, d := range res.Diagnostics {
		survivors[d.Check]++
	}
	for _, check := range []string{"wsescape", "gocapture"} {
		if survivors[check] != 1 {
			t.Errorf("%s: %d surviving diagnostics, want 1: %s", check, survivors[check], diagList(res.Diagnostics))
		}
	}
	if len(res.Diagnostics) != 2 {
		t.Errorf("got %d surviving diagnostics, want 2: %s", len(res.Diagnostics), diagList(res.Diagnostics))
	}
}
