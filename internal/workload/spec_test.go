package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
)

func TestFromSpecKinds(t *testing.T) {
	cases := []struct {
		spec string
		n    int // expected job count (0 = just validate)
	}{
		{"poisson:n=20,load=0.8,dist=exp,mean=2", 20},
		{"poisson", 100},
		{"batch:n=7,dist=fixed,mean=3", 7},
		{"bursts:bursts=3,size=4,period=5", 12},
		{"rrstream:groups=6,m=2", 12},
		{"cascade:levels=4,theta=0.5", 15},
		{"starvation:big=5,n=10,small=1", 11},
		{"staircase:n=5", 5},
	}
	for _, c := range cases {
		in, err := FromSpec(c.spec, 1)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("%q invalid: %v", c.spec, err)
		}
		if c.n > 0 && in.N() != c.n {
			t.Fatalf("%q: n=%d, want %d", c.spec, in.N(), c.n)
		}
	}
}

func TestFromSpecDists(t *testing.T) {
	for _, spec := range []string{
		"batch:n=5,dist=pareto,alpha=2,xm=1",
		"batch:n=5,dist=uniform,lo=1,hi=2",
		"batch:n=5,dist=bimodal,small=1,large=10,plarge=0.3",
	} {
		if _, err := FromSpec(spec, 1); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
	}
}

func TestFromSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"nope",
		"poisson:zzz=3",
		"poisson:n",
		"poisson:n=abc",
		"batch:dist=weird",
		"trace",
		"trace:path=/definitely/not/here.csv",
	} {
		if _, err := FromSpec(spec, 1); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
}

// fromCSVTrace writes csv to a file and reads it back through
// FromSpec("trace:path=…").
func fromCSVTrace(t *testing.T, csv string) (*core.Instance, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return FromSpec("trace:path="+path, 1)
}

// requireJobs fails t unless got is want, bit for bit.
func requireJobs(t *testing.T, got, want []core.Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("n=%d, want %d", len(got), len(want))
	}
	for i, j := range got {
		w := want[i]
		if j.ID != w.ID || math.Float64bits(j.Release) != math.Float64bits(w.Release) ||
			math.Float64bits(j.Size) != math.Float64bits(w.Size) ||
			math.Float64bits(j.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("job %d: %+v, want %+v", i, j, w)
		}
	}
}

// TestFromSpecTrace: trace:path= reads a CSV job trace through
// trace.ReadInstance. Columns are found by their header names, rows may
// come in any order, and the jobs come back bit for bit in (Release, ID)
// order.
func TestFromSpecTrace(t *testing.T) {
	const dir = "../../testdata/replay/"
	nd, err := os.Open(dir + "fixture.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	fixture, err := trace.ReadInstance(nd, trace.FormatNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	fixtureCSV, err := os.ReadFile(dir + "fixture.csv")
	if err != nil {
		t.Fatal(err)
	}
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	permuted := "size,id,weight,release\n"
	for _, j := range fixture.Jobs {
		permuted += g(j.Size) + "," + strconv.Itoa(j.ID) + "," + g(j.Weight) + "," + g(j.Release) + "\n"
	}
	pareto := Poisson(stats.NewRNG(6), 30, 1.5, ParetoSizes{Alpha: 2, Xm: 1})
	var encoded bytes.Buffer
	if err := trace.Encode(&encoded, pareto.Jobs, trace.FormatCSV); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		csv  string
		want []core.Job
	}{
		{name: "fixture csv", csv: string(fixtureCSV), want: fixture.Jobs},
		{name: "permuted columns", csv: permuted, want: fixture.Jobs},
		{name: "encode round trip", csv: encoded.String(), want: pareto.Jobs},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, err := fromCSVTrace(t, c.csv)
			if err != nil {
				t.Fatal(err)
			}
			requireJobs(t, in.Jobs, c.want)
		})
	}
}

// TestReadCSVErrors: whatever the CSV decoder rejects is an error through
// trace:path=, as is a file with no job.
func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ csv, frag string }{
		{"", "no jobs"},
		{"a,b\n1,2\n", "unknown column"},
		{"id,release,size\nx,0,1\n", `invalid integer "x"`},
		{"id,release,size\n1,zz,1\n", `invalid number "zz"`},
		{"id,release,size\n1,0,-4\n", "negative or non-finite size"},
	}
	for i, c := range cases {
		if _, err := fromCSVTrace(t, c.csv); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("case %d: error %v, want one mentioning %q", i, err, c.frag)
		}
	}
}

func TestFromSpecDeterministic(t *testing.T) {
	a, _ := FromSpec("poisson:n=30", 9)
	b, _ := FromSpec("poisson:n=30", 9)
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatal("same seed must give same instance")
		}
	}
}

func TestCascadeShape(t *testing.T) {
	in := Cascade(3, 0.5)
	if in.N() != 7 {
		t.Fatalf("n=%d, want 7", in.N())
	}
	// Level 0: one job of size 1.5 at t=0; level 2: four jobs of 0.375 at t=2.
	if in.Jobs[0].Size != 1.5 || in.Jobs[0].Release != 0 {
		t.Fatalf("level 0 job: %+v", in.Jobs[0])
	}
	last := in.Jobs[6]
	if last.Release != 2 || last.Size != 0.375 {
		t.Fatalf("level 2 job: %+v", last)
	}
	// Per-level work is constant 1+θ.
	work := map[float64]float64{}
	for _, j := range in.Jobs {
		work[j.Release] += j.Size
	}
	for lvl, w := range work {
		if diff := w - 1.5; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("level %v work %v, want 1.5", lvl, w)
		}
	}
}

func TestFromSpecDiurnal(t *testing.T) {
	in, err := FromSpec("diurnal:n=50,rate=2,amp=0.5,period=10", 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 50 {
		t.Fatalf("n=%d", in.N())
	}
}
