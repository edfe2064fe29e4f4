package workload

import (
	"math"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
)

func TestPoissonLoadTargetsUtilization(t *testing.T) {
	rng := stats.NewRNG(1)
	dist := ExpSizes{M: 2}
	in := PoissonLoad(rng, 20000, 2, 0.8, dist)
	// Empirical load = total work / (m × span of arrivals).
	load := in.TotalWork() / (2 * in.MaxRelease())
	if load < 0.74 || load > 0.86 {
		t.Fatalf("empirical load %v, want ≈ 0.8", load)
	}
}

func TestPoissonDeterministicUnderSeed(t *testing.T) {
	a := Poisson(stats.NewRNG(42), 50, 1, ExpSizes{M: 1})
	b := Poisson(stats.NewRNG(42), 50, 1, ExpSizes{M: 1})
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs across equal seeds", i)
		}
	}
}

func TestBatchAndUniform(t *testing.T) {
	rng := stats.NewRNG(2)
	b := Batch(rng, 10, FixedSizes{V: 3})
	for _, j := range b.Jobs {
		if j.Release != 0 || j.Size != 3 {
			t.Fatalf("batch job %+v", j)
		}
	}
	u := Uniform(rng, 100, 50, UniformSizes{Lo: 1, Hi: 2})
	for _, j := range u.Jobs {
		if j.Release < 0 || j.Release > 50 || j.Size < 1 || j.Size > 2 {
			t.Fatalf("uniform job out of range: %+v", j)
		}
	}
}

func TestPeriodicBursts(t *testing.T) {
	in := PeriodicBursts(stats.NewRNG(3), 4, 3, 10, FixedSizes{V: 1})
	if in.N() != 12 {
		t.Fatalf("n=%d, want 12", in.N())
	}
	if in.Jobs[3].Release != 10 || in.Jobs[11].Release != 30 {
		t.Fatalf("burst releases wrong: %+v", in.Jobs)
	}
}

func TestSizeDistMeans(t *testing.T) {
	rng := stats.NewRNG(4)
	dists := []SizeDist{
		ExpSizes{M: 3},
		ParetoSizes{Alpha: 2.2, Xm: 1},
		UniformSizes{Lo: 2, Hi: 6},
		BimodalSizes{Small: 1, Large: 100, PLarge: 0.05},
		FixedSizes{V: 7},
	}
	const n = 400000
	for _, d := range dists {
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.Sample(rng)
		}
		emp := sum / n
		want := d.Mean()
		if math.Abs(emp-want) > 0.05*want+1e-9 {
			t.Errorf("%s: empirical mean %v, declared %v", d.Name(), emp, want)
		}
	}
}

func TestSizeDistPositive(t *testing.T) {
	rng := stats.NewRNG(5)
	dists := []SizeDist{
		ExpSizes{M: 1}, ParetoSizes{Alpha: 1.5, Xm: 0.5}, UniformSizes{Lo: 0.1, Hi: 1},
		BimodalSizes{Small: 0.5, Large: 10, PLarge: 0.2}, FixedSizes{V: 1},
	}
	for _, d := range dists {
		for i := 0; i < 10000; i++ {
			if v := d.Sample(rng); !(v > 0) {
				t.Fatalf("%s produced non-positive size %v", d.Name(), v)
			}
		}
	}
}

// TestRRStreamSimultaneousCompletion is the cross-check of the adversarial
// construction against the engine: under RR at unit speed, every job of the
// G-group stream completes at exactly T = 2G.
func TestRRStreamSimultaneousCompletion(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		const G = 16
		in := RRStream(G, m)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(in, policy.NewRR(), core.Options{Machines: m, Speed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Completion {
			if math.Abs(c-2*G) > 1e-6 {
				t.Fatalf("m=%d: job %d completes at %v, want %v", m, i, c, 2*G)
			}
		}
	}
}

func TestRRStreamSizesDecreasing(t *testing.T) {
	in := RRStream(10, 1)
	for i := 1; i < in.N(); i++ {
		if in.Jobs[i].Size > in.Jobs[i-1].Size {
			t.Fatalf("sizes not non-increasing at %d", i)
		}
	}
	// Last job's size: H_G − H_{G−1} + 1 = 1/G + 1.
	last := in.Jobs[in.N()-1].Size
	if math.Abs(last-1.1) > 1e-12 {
		t.Fatalf("last size %v, want 1.1", last)
	}
}

func TestStarvationInstance(t *testing.T) {
	const n, big = 40, 10.0
	in := Starvation(big, n, 1.0)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.N() != n+1 {
		t.Fatalf("n=%d", in.N())
	}
	srpt, err := core.Run(in, policy.NewSRPT(), core.Options{Machines: 1, Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SRPT starves the big job for the whole unit-job stream: it cannot
	// finish before the stream ends at t = n+1.
	if bigSRPT := srpt.FlowByID()[0]; bigSRPT < float64(n) {
		t.Fatalf("SRPT big-job flow %v, expected starvation ≥ %d", bigSRPT, n)
	}
	// RR equalizes slowdowns: Jain's index on stretches must be higher
	// (fairer) than SRPT's, which gives small jobs stretch 1 and dumps all
	// delay on the big job.
	sizes := make([]float64, len(in.Jobs))
	for i, j := range in.Jobs {
		sizes[i] = j.Size
	}
	jainRR := metrics.JainIndex(metrics.Stretches(rr.Flow, sizes))
	jainSRPT := metrics.JainIndex(metrics.Stretches(srpt.Flow, sizes))
	if jainRR <= jainSRPT {
		t.Fatalf("Jain(stretch): RR %v should exceed SRPT %v", jainRR, jainSRPT)
	}
}

func TestStaircase(t *testing.T) {
	in := Staircase(4)
	if in.N() != 4 || in.Jobs[0].Size != 4 || in.Jobs[3].Size != 1 {
		t.Fatalf("staircase: %+v", in.Jobs)
	}
}

func TestDescribe(t *testing.T) {
	if Describe(core.NewInstance(nil)) != "empty instance" {
		t.Fatal("empty describe")
	}
	s := Describe(Staircase(3))
	if s == "" {
		t.Fatal("describe empty string")
	}
}

func TestDiurnalPattern(t *testing.T) {
	rng := stats.NewRNG(40)
	const period = 20.0
	in := Diurnal(rng, 40000, 2, 0.8, period, FixedSizes{V: 1})
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Arrival counts in the sine's peak half-period must exceed the
	// trough's: classify each arrival by phase.
	peak, trough := 0, 0
	for _, j := range in.Jobs {
		phase := math.Mod(j.Release, period) / period
		if phase < 0.5 {
			peak++
		} else {
			trough++
		}
	}
	if float64(peak) < 1.3*float64(trough) {
		t.Fatalf("diurnal pattern missing: peak %d vs trough %d", peak, trough)
	}
	// Overall rate ≈ baseRate.
	rate := float64(in.N()) / in.MaxRelease()
	if rate < 1.8 || rate > 2.2 {
		t.Fatalf("mean rate %v, want ≈ 2", rate)
	}
}

func TestDiurnalAmplitudeClamps(t *testing.T) {
	rng := stats.NewRNG(41)
	for _, amp := range []float64{-1, 1.5} {
		in := Diurnal(rng, 100, 1, amp, 10, FixedSizes{V: 1})
		if err := in.Validate(); err != nil {
			t.Fatalf("amp=%v: %v", amp, err)
		}
	}
}

func TestCDFOfMatchesSampling(t *testing.T) {
	rng := stats.NewRNG(60)
	dists := []SizeDist{
		ExpSizes{M: 2},
		ParetoSizes{Alpha: 1.8, Xm: 1, Cap: 50},
		UniformSizes{Lo: 1, Hi: 3},
		BimodalSizes{Small: 1, Large: 10, PLarge: 0.3},
		FixedSizes{V: 4},
	}
	for _, d := range dists {
		cdf, sup, ok := CDFOf(d)
		if !ok {
			t.Fatalf("%s: no CDF", d.Name())
		}
		if cdf(0) != 0 && d.Name() != "fixed(4)" {
			// fixed(4) at 0 is 0 too; guard anyway
			t.Fatalf("%s: cdf(0)=%v", d.Name(), cdf(0))
		}
		if got := cdf(sup * 1.01); got < 0.99 {
			t.Fatalf("%s: cdf(sup)=%v", d.Name(), got)
		}
		// Empirical check at the median-ish point.
		const n = 200000
		probe := sup / 3
		count := 0
		for i := 0; i < n; i++ {
			if d.Sample(rng) <= probe {
				count++
			}
		}
		emp := float64(count) / n
		if math.Abs(emp-cdf(probe)) > 0.02 {
			t.Fatalf("%s: empirical F(%v)=%v vs cdf %v", d.Name(), probe, emp, cdf(probe))
		}
	}
}

func TestCharacterize(t *testing.T) {
	// Poisson + exp: IACV ≈ 1, dispersion ≈ 1, size CV ≈ 1.
	pois := Poisson(stats.NewRNG(70), 20000, 1, ExpSizes{M: 1})
	p := Characterize(pois)
	if math.Abs(p.IACV-1) > 0.1 || math.Abs(p.SizeCV-1) > 0.1 {
		t.Fatalf("poisson profile off: %+v", p)
	}
	if p.Burstiness > 2 {
		t.Fatalf("poisson dispersion %v", p.Burstiness)
	}
	// Bursty arrivals: periodic bursts → high dispersion.
	bur := PeriodicBursts(stats.NewRNG(71), 10, 50, 10, FixedSizes{V: 1})
	pb := Characterize(bur)
	if pb.Burstiness < 5 {
		t.Fatalf("burst dispersion %v, want ≫ 1", pb.Burstiness)
	}
	// Heavy tails tagged.
	hv := Poisson(stats.NewRNG(72), 5000, 1, ParetoSizes{Alpha: 1.3, Xm: 1, Cap: 1e4})
	ph := Characterize(hv)
	found := false
	for _, tag := range ph.tags() {
		if tag == "heavy-tailed sizes" {
			found = true
		}
	}
	if !found {
		t.Fatalf("heavy tail not tagged: %+v (CV %v)", ph.tags(), ph.SizeCV)
	}
	if s := ph.String(); s == "" {
		t.Fatal("empty render")
	}
	// Degenerate.
	if p := Characterize(core.NewInstance(nil)); p.N != 0 {
		t.Fatalf("empty profile: %+v", p)
	}
}
