package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var updateQuickDigests = flag.Bool("update-quick-digests", false, "rewrite testdata/quick_digests.txt")

// quickDigestFile holds the SHA-256 of every table's quick-suite CSV.
const quickDigestFile = "testdata/quick_digests.txt"

// quickCfg is the suite configuration the tests run.
func quickCfg() Config {
	return Config{Seed: 42, Quick: true}
}

// cell parses a table cell as float.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// colIndex finds a column by name.
func colIndex(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("column %q not in %v", name, tab.Columns)
	return -1
}

func runExp(t *testing.T, id string) []*Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	return tables
}

// TestAllExperimentsRunQuick runs the whole suite at quickCfg, checks each
// table's shape, and is the tripwire for committed numbers: the SHA-256 of
// every table's CSV must match testdata/quick_digests.txt, so any change to
// an experiment's output fails here until the digests are regenerated with
// go test ./internal/exp -run TestAllExperimentsRunQuick -update-quick-digests.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	dir := t.TempDir()
	var got []string
	for _, e := range All() {
		tables, err := e.Run(quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
				t.Fatalf("%s/%s: empty table", e.ID, tab.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s/%s: row width %d != %d columns", e.ID, tab.ID, len(row), len(tab.Columns))
				}
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatalf("%s render: %v", tab.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s: empty render", tab.ID)
			}
			if err := tab.WriteCSV(dir); err != nil {
				t.Fatalf("%s csv: %v", tab.ID, err)
			}
			b, err := os.ReadFile(filepath.Join(dir, tab.ID+".csv"))
			if err != nil {
				t.Fatalf("%s csv missing: %v", tab.ID, err)
			}
			sum := sha256.Sum256(b)
			got = append(got, tab.ID+" "+hex.EncodeToString(sum[:]))
		}
	}
	if *updateQuickDigests {
		body := "# table sha256-of-quick-csv (Seed 42, Quick)\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(quickDigestFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(quickDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(b), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d tables, the suite writes %d", quickDigestFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("quick CSV digest differs (regenerate with -update-quick-digests only for a deliberate change of numbers):\n got  %s\n want %s", got[i], want[i])
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E5")
	if err != nil || e.ID != "E5" {
		t.Fatalf("ByID(E5): %v %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("ByID(E99) should fail")
	}
}

func TestTableAddRowFormats(t *testing.T) {
	tab := &Table{ID: "X", Columns: []string{"a", "b", "c"}}
	tab.AddRow("s", 1.23456789, 7)
	if tab.Rows[0][0] != "s" || tab.Rows[0][2] != "7" {
		t.Fatalf("row: %v", tab.Rows[0])
	}
	if tab.Rows[0][1] != "1.235" {
		t.Fatalf("float formatting: %q", tab.Rows[0][1])
	}
}

func TestFitGrowthExponent(t *testing.T) {
	// y = 3·x^0.5 exactly.
	xs := []float64{1, 4, 16, 64}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Sqrt(x)
	}
	if b := fitGrowthExponent(xs, ys); math.Abs(b-0.5) > 1e-9 {
		t.Fatalf("exponent %v, want 0.5", b)
	}
	if b := fitGrowthExponent([]float64{2}, []float64{3}); b != 0 {
		t.Fatalf("degenerate fit: %v", b)
	}
}

// TestE2Dichotomy asserts the lower-bound shape: RR's ℓ2 ratio grows with n
// at speed 1 and does not grow at speed 4.
func TestE2Dichotomy(t *testing.T) {
	tab := runExp(t, "E2")[0]
	sCol := colIndex(t, tab, "speed")
	rCol := colIndex(t, tab, "RR_ratio")
	bySpeed := map[string][]float64{}
	for i := range tab.Rows {
		bySpeed[tab.Rows[i][sCol]] = append(bySpeed[tab.Rows[i][sCol]], cell(t, tab, i, rCol))
	}
	slow := bySpeed["1"]
	fast := bySpeed["4"]
	if len(slow) < 3 || len(fast) < 3 {
		t.Fatalf("unexpected sweep shape: %v", bySpeed)
	}
	if !(slow[len(slow)-1] > slow[0]*1.05) {
		t.Errorf("speed 1: ratio should grow with n: %v", slow)
	}
	if fast[len(fast)-1] > fast[0]*1.05 {
		t.Errorf("speed 4: ratio should not grow with n: %v", fast)
	}
	if fast[len(fast)-1] > 1 {
		t.Errorf("speed 4: RR should beat the unit-speed bound, ratio %v", fast[len(fast)-1])
	}
}

// TestE5FairnessStory asserts the motivating claim: on the starvation
// fixture RR has the best stretch fairness among preempting policies and
// SRPT the best mean flow.
func TestE5FairnessStory(t *testing.T) {
	tabs := runExp(t, "E5")
	tab := tabs[0] // E5a
	jCol := colIndex(t, tab, "jain_stretch")
	mCol := colIndex(t, tab, "mean_flow")
	vals := map[string][2]float64{}
	for i := range tab.Rows {
		vals[tab.Rows[i][0]] = [2]float64{cell(t, tab, i, jCol), cell(t, tab, i, mCol)}
	}
	if !(vals["RR"][0] > vals["SRPT"][0]) {
		t.Errorf("RR jain_stretch %v should beat SRPT %v", vals["RR"][0], vals["SRPT"][0])
	}
	if !(vals["SRPT"][1] < vals["RR"][1]) {
		t.Errorf("SRPT mean flow %v should beat RR %v", vals["SRPT"][1], vals["RR"][1])
	}
}

// TestE8AllFeasibleAtTheoremSpeed parses the E8 table and asserts every
// theorem-speed row is feasible with obj_frac ≥ ε.
func TestE8AllFeasibleAtTheoremSpeed(t *testing.T) {
	tab := runExp(t, "E8")[0]
	sCol := colIndex(t, tab, "speed")
	fCol := colIndex(t, tab, "feasible")
	oCol := colIndex(t, tab, "obj_frac")
	eCol := colIndex(t, tab, "eps")
	for i, row := range tab.Rows {
		if row[sCol] == "1" {
			continue // the deliberately-unaugmented contrast rows
		}
		if row[fCol] != "true" {
			t.Errorf("row %d: infeasible at theorem speed: %v", i, row)
		}
		eps, _ := strconv.ParseFloat(row[eCol], 64)
		if frac := cell(t, tab, i, oCol); frac < eps {
			t.Errorf("row %d: obj_frac %v < eps %v", i, frac, eps)
		}
	}
}

// TestE9ExponentOrdering: the growth exponent must decrease with speed and
// be positive at speed 1.
func TestE9ExponentOrdering(t *testing.T) {
	tab := runExp(t, "E9")[0]
	eCol := colIndex(t, tab, "exponent")
	first := cell(t, tab, 0, eCol)
	last := cell(t, tab, len(tab.Rows)-1, eCol)
	if first <= 0.02 {
		t.Errorf("speed 1 exponent %v should be clearly positive", first)
	}
	if last >= first {
		t.Errorf("exponent should fall with speed: %v → %v", first, last)
	}
}

// TestE10AllAnchorsHold parses E10 and asserts the boolean columns.
func TestE10AllAnchorsHold(t *testing.T) {
	tab := runExp(t, "E10")[0]
	for _, col := range []string{"lp_le_opt", "opt_le_best"} {
		c := colIndex(t, tab, col)
		for i, row := range tab.Rows {
			if row[c] != "true" {
				t.Errorf("row %d: %s = %q", i, col, row[c])
			}
		}
	}
	c := colIndex(t, tab, "srpt_opt_for_l1")
	if tab.Rows[0][c] != "true" {
		t.Errorf("SRPT ℓ1-optimality: %q", tab.Rows[0][c])
	}
}

// TestE11SpeedSlack: the bisected minimal certificate-feasible speed must
// be at most the theorem speed (slack factor ≥ 1) for every row.
func TestE11SpeedSlack(t *testing.T) {
	tab := runExp(t, "E11")[0]
	sCol := colIndex(t, tab, "min_feasible_speed")
	eCol := colIndex(t, tab, "eta_theorem")
	for i, row := range tab.Rows {
		if row[sCol] == "> η (!)" {
			t.Errorf("row %d: certificate infeasible at theorem speed: %v", i, row)
			continue
		}
		if cell(t, tab, i, sCol) > cell(t, tab, i, eCol)+1e-9 {
			t.Errorf("row %d: min speed %s exceeds η %s", i, row[sCol], row[eCol])
		}
	}
}

// TestE12EveryRowCertified: the ablation rows are each valid lower bounds,
// so none may exceed the finest bound by more than LP noise, and the finest
// row's rel_to_finest is exactly 1.
func TestE12Ablation(t *testing.T) {
	tab := runExp(t, "E12")[0]
	rCol := colIndex(t, tab, "rel_to_finest")
	for i := range tab.Rows {
		rel := cell(t, tab, i, rCol)
		if rel <= 0 || rel > 1.1 {
			t.Errorf("row %d: rel_to_finest %v out of (0, 1.1]", i, rel)
		}
	}
	if last := cell(t, tab, len(tab.Rows)-1, rCol); math.Abs(last-1) > 1e-9 {
		t.Errorf("finest row rel %v != 1", last)
	}
}

// TestDeterministicTables: equal configs give byte-identical tables.
func TestDeterministicTables(t *testing.T) {
	e, _ := ByID("E4")
	a, err := e.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0].Rows, b[0].Rows) {
		t.Fatalf("non-deterministic tables:\n%v\n%v", a[0].Rows, b[0].Rows)
	}
}
