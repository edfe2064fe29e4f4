package exp

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"rrnorm/internal/core"
)

// TestE5aGolden pins the fully deterministic starvation-fixture table
// (quick mode): the instance is deterministic and every policy in it is
// deterministic, so any change here is a real behavioral change in the
// engine or a policy — exactly what a golden test should catch.
func TestE5aGolden(t *testing.T) {
	tabs := runExp(t, "E5")
	tab := tabs[0]
	if tab.ID != "E5a" {
		t.Fatalf("first table %s", tab.ID)
	}
	want := map[string]map[string]string{
		// policy → column → value (spot-checked, stable fields only)
		"RR":   {"max_flow": "40", "jain_flow": "0.6791"},
		"SRPT": {"mean_flow": "2.258", "max_flow": "40"},
		"FCFS": {"mean_flow": "10", "std_flow": "0", "jain_flow": "1"},
	}
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}
	for _, row := range tab.Rows {
		exp, ok := want[row[0]]
		if !ok {
			continue
		}
		for c, v := range exp {
			if row[col[c]] != v {
				t.Errorf("%s.%s = %q, want %q (golden)", row[0], c, row[col[c]], v)
			}
		}
	}
}

// csvBytes runs the experiment with the given config and returns each
// table's CSV file content keyed by table ID.
func csvBytes(t *testing.T, id string, cfg Config) map[string][]byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	dir := t.TempDir()
	out := make(map[string][]byte, len(tables))
	for _, tab := range tables {
		if err := tab.WriteCSV(dir); err != nil {
			t.Fatalf("%s csv: %v", tab.ID, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, tab.ID+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		out[tab.ID] = b
	}
	return out
}

// TestE1E4GoldenAcrossEngines: the E1–E4 quick-suite CSVs must be
// byte-identical whether the suite runs on the reference engine or on the
// default (auto) engine, which takes the event-driven fast path for RR,
// SRPT, SJF and FCFS. E4 also exercises the fallback (SETF has no fast
// path), so this doubles as a mixed-dispatch test. Any byte difference
// means the fast engine's schedules drifted outside %.4g rounding — a real
// engine divergence, not formatting noise.
func TestE1E4GoldenAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	for _, id := range []string{"E1", "E2", "E3", "E4"} {
		ref := csvBytes(t, id, Config{Seed: 42, Quick: true, Engine: core.EngineReference})
		auto := csvBytes(t, id, Config{Seed: 42, Quick: true, Engine: core.EngineAuto})
		if len(ref) != len(auto) {
			t.Fatalf("%s: table sets differ: %d vs %d", id, len(ref), len(auto))
		}
		for tid, rb := range ref {
			if !bytes.Equal(rb, auto[tid]) {
				t.Errorf("%s/%s: CSV differs between reference and fast engine:\n--- reference\n%s\n--- fast\n%s",
					id, tid, rb, auto[tid])
			}
		}
	}
}

// TestE1E4GoldenUnderParallel: running the four experiments concurrently
// must give byte-identical CSVs to sequential runs — no hidden shared state
// in the engines, policies or workload generators. (The -race CI loop makes
// this a real data-race probe, not just a determinism check.)
func TestE1E4GoldenUnderParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	ids := []string{"E1", "E2", "E3", "E4"}
	seq := make([]map[string][]byte, len(ids))
	for i, id := range ids {
		seq[i] = csvBytes(t, id, quickCfg())
	}
	par := make([]map[string][]byte, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			par[i] = csvBytes(t, id, quickCfg())
		}(i, id)
	}
	wg.Wait()
	for i, id := range ids {
		for tid, sb := range seq[i] {
			if !bytes.Equal(sb, par[i][tid]) {
				t.Errorf("%s/%s: CSV differs between sequential and parallel runs", id, tid)
			}
		}
	}
}

// TestE17Golden pins E17's no-overhead convergence claim: at switch_cost 0
// discrete quantum RR keeps throughput 1, and both its max completion gap
// to fluid RR and |1 − L2_vs_fluid| shrink as the quantum shrinks (quick
// suite: 1.404 → 0.1181 and 0.0094 → 0.0021 from Q=0.5 to Q=0.05).
func TestE17Golden(t *testing.T) {
	tab := runExp(t, "E17")[0]
	qCol := colIndex(t, tab, "quantum")
	cCol := colIndex(t, tab, "switch_cost")
	gCol := colIndex(t, tab, "max_gap")
	lCol := colIndex(t, tab, "L2_vs_fluid")
	tCol := colIndex(t, tab, "throughput")
	type point struct{ q, gap, l2err float64 }
	var pts []point
	for i, row := range tab.Rows {
		if row[cCol] != "0" {
			continue
		}
		if row[tCol] != "1" {
			t.Errorf("row %d: zero-overhead throughput %q != 1", i, row[tCol])
		}
		pts = append(pts, point{cell(t, tab, i, qCol), cell(t, tab, i, gCol), math.Abs(1 - cell(t, tab, i, lCol))})
	}
	if len(pts) < 2 {
		t.Fatalf("%d zero-overhead rows, want a quantum sweep", len(pts))
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].q > pts[b].q })
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if !(b.gap < a.gap) || !(b.l2err < a.l2err) {
			t.Errorf("Q=%v → %v: max_gap %v → %v, |1−L2_vs_fluid| %v → %v; want both to shrink",
				a.q, b.q, a.gap, b.gap, a.l2err, b.l2err)
		}
	}
}
