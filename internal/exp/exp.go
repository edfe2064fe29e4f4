// Package exp defines the experiment suite E1–E28: the numerical
// counterparts of every claim in the paper, plus ablations and the
// related-settings reproductions (see DESIGN.md §3). Each experiment
// produces Tables that the rrbench CLI renders as text and CSV.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"rrnorm/internal/core"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all workload randomness; equal seeds give identical
	// tables.
	Seed uint64
	// Quick shrinks instance sizes and sweep grids for tests/CI.
	Quick bool
	// OutDir, when non-empty, receives one CSV per table.
	OutDir string
	// Engine selects the simulation engine. The zero value (EngineAuto)
	// uses the event-driven fast path for structured policies (RR, SRPT,
	// SJF, FCFS, StaticPriority) and the reference engine for everything
	// else; EngineReference forces the step-based reference engine.
	Engine core.EngineKind
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are stringified with %v unless
// already strings; floats use a compact format.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			row[i] = x
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, c := range t.Columns {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV writes the table to dir/<ID>.csv.
func (t *Table) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]*Table, error)
}

// All returns the experiment suite in order E1..E28.
func All() []Experiment {
	return []Experiment{
		{"E1", "Theorem 1 shape: RR ℓk-ratio vs speed (k=1,2,3)", E1},
		{"E2", "Lower bound: RR ℓ2-ratio growth with n at low speed", E2},
		{"E3", "ℓ1 contrast: RR is O(1)-speed O(1)-competitive for total flow", E3},
		{"E4", "Baselines: SRPT/SJF/SETF near-scalable at speed 1+ε (ℓ2)", E4},
		{"E5", "Fairness motivation: variance/stretch of RR vs size-based policies", E5},
		{"E6", "Multiple machines: RR across m with overload fractions", E6},
		{"E7", "Age-weighted WRR vs RR at low speeds (ℓ2)", E7},
		{"E8", "Dual-fitting certificate: Lemmas 1–4 at η=2k(1+10ε)", E8},
		{"E9", "Speed crossover: growth exponent of RR ℓ2-ratio vs speed", E9},
		{"E10", "Validation anchors: LP/2 ≤ exact OPT ≤ policies; SRPT ℓ1-optimal", E10},
		{"E11", "Ablation: minimal certificate-feasible speed vs Theorem 1's η", E11},
		{"E12", "Ablation: LP lower-bound discretization (slots × units)", E12},
		{"E13", "Extension: weighted ℓ2 flow — weight-aware vs oblivious policies", E13},
		{"E14", "Backstory: speed-up curves — EQUI vs WLAPS vs clairvoyant proxy", E14},
		{"E15", "Backstory: broadcast scheduling — RR-request vs RR-page vs LWF", E15},
		{"E16", "Ablations: LAPS β, MLFQ quantum, WRR quantum convergence", E16},
		{"E17", "Practice: discrete quantum RR vs fluid RR (convergence & overhead)", E17},
		{"E18", "OPT brackets: LP/2 vs α-point rounding vs best policy", E18},
		{"E19", "Speed vs machine augmentation for RR (ℓ2)", E19},
		{"E20", "Knowledge spectrum: RR vs SETF vs Gittins vs SRPT", E20},
		{"E21", "Speed scaling: job-count scaling (flow+energy) vs fixed speeds", E21},
		{"E22", "Figure: flow-time distribution (percentile curves) by policy", E22},
		{"E23", "Fractional vs integral SETF on multiple machines (Related Work [5])", E23},
		{"E24", "ℓ∞ endpoint: max-flow ratios vs FCFS (the exact ℓ∞ optimum)", E24},
		{"E25", "Adversarial hunt: ratio frontier vs analytic seed instances", E25},
		{"E26", "Trace replay vs fitted model: ℓk flow norms by policy", E26},
		{"E27", "Heterogeneous speeds at equal total capacity: ℓk norms + certificate", E27},
		{"E28", "Preemption-cost sweep: RR vs SRPT vs HYBRID ℓk norms", E28},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, 10)
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, ids)
}
