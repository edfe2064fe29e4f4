package policy

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rrnorm/internal/core"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

// unit returns the paper's machines: m identical unit-speed machines at
// augmentation speed 1.
func unit(m int) *core.MachineEnv { return &core.MachineEnv{M: m, Speed: 1} }

// uniform returns m machines of speeds {4, 2, 1}[:m] at augmentation speed 1.
func uniform(m int) *core.MachineEnv {
	var env core.MachineEnv
	core.BuildMachineEnv(&core.Options{Machines: m, Speed: 1,
		MachineModel: core.Machines{Speeds: []float64{4, 2, 1}[:m]}}, &env)
	return &env
}

func run(t *testing.T, in *core.Instance, p core.Policy, m int, speed float64) *core.Result {
	t.Helper()
	var rec core.SegmentRecorder
	res, err := core.Run(in, p, core.Options{Machines: m, Speed: speed, Observer: &rec})
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name(), err)
	}
	if err := core.ValidateResult(res, rec.Segments); err != nil {
		t.Fatalf("ValidateResult(%s): %v", p.Name(), err)
	}
	return res
}

func TestRRShares(t *testing.T) {
	jobs := []core.JobView{{ID: 0}, {ID: 1}, {ID: 2}}
	rates := make([]float64, 3)
	NewRR().Rates(0, jobs, unit(2), rates)
	for i, r := range rates {
		approx(t, r, 2.0/3.0, 1e-12, "RR share "+string(rune('0'+i)))
	}
	rates = make([]float64, 3)
	NewRR().Rates(0, jobs, unit(5), rates)
	for _, r := range rates {
		approx(t, r, 1, 1e-12, "RR underloaded share")
	}
}

func TestSRPTPreemption(t *testing.T) {
	// Long job at 0 (size 10), short job at 1 (size 1): SRPT preempts,
	// short finishes at 2, long at 11.
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 10}, {ID: 1, Release: 1, Size: 1}})
	res := run(t, in, NewSRPT(), 1, 1)
	approx(t, res.Completion[1], 2, 1e-9, "short job completion")
	approx(t, res.Completion[0], 11, 1e-9, "long job completion")
}

func TestSRPTVsSJFDistinguished(t *testing.T) {
	// Job A size 10 at 0; job B size 5 at 9. At t=9, A has remaining 1.
	// SRPT finishes A first (C_A=10, C_B=15); SJF prefers B's smaller
	// original size (C_B=14, C_A=15).
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 10}, {ID: 1, Release: 9, Size: 5}})
	srpt := run(t, in, NewSRPT(), 1, 1)
	approx(t, srpt.Completion[0], 10, 1e-9, "SRPT A")
	approx(t, srpt.Completion[1], 15, 1e-9, "SRPT B")
	sjf := run(t, in, NewSJF(), 1, 1)
	approx(t, sjf.Completion[1], 14, 1e-9, "SJF B")
	approx(t, sjf.Completion[0], 15, 1e-9, "SJF A")
}

func TestFCFSNoPreemption(t *testing.T) {
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 5}, {ID: 1, Release: 1, Size: 1}})
	res := run(t, in, NewFCFS(), 1, 1)
	approx(t, res.Completion[0], 5, 1e-9, "first job")
	approx(t, res.Completion[1], 6, 1e-9, "second job")
}

func TestSETFCatchUp(t *testing.T) {
	// A (size 3) at t=0; B (size 1) at t=1. SETF: A runs [0,1) to elapsed
	// 1; B (elapsed 0) then runs alone until it catches A's elapsed 1 at
	// t=2, exactly finishing (size 1). A then runs alone, finishing at 4.
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 3}, {ID: 1, Release: 1, Size: 1}})
	res := run(t, in, NewSETF(), 1, 1)
	approx(t, res.Completion[1], 2, 1e-6, "B completion")
	approx(t, res.Completion[0], 4, 1e-6, "A completion")
}

func TestSETFSharingAfterCatchUp(t *testing.T) {
	// A (size 2) at 0, B (size 2) at 1. B catches A's elapsed 1 at t=2;
	// both then share at 1/2, each needing 1 more unit → both complete at
	// t=4.
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 2}, {ID: 1, Release: 1, Size: 2}})
	res := run(t, in, NewSETF(), 1, 1)
	approx(t, res.Completion[0], 4, 1e-6, "A completion")
	approx(t, res.Completion[1], 4, 1e-6, "B completion")
}

func TestSETFMultiMachineWaterfill(t *testing.T) {
	// 3 jobs, 2 machines, all elapsed 0 at t=0: they form one group
	// sharing 2 machines → rate 2/3 each.
	jobs := []core.JobView{{ID: 0}, {ID: 1}, {ID: 2}}
	rates := make([]float64, 3)
	NewSETF().Rates(0, jobs, unit(2), rates)
	for _, r := range rates {
		approx(t, r, 2.0/3.0, 1e-12, "group share")
	}
	// Distinct elapsed levels: lowest gets 1, next gets 1, last gets 0.
	jobs = []core.JobView{{ID: 0, Elapsed: 0.5}, {ID: 1, Elapsed: 0.1}, {ID: 2, Elapsed: 0.9}}
	rates = make([]float64, 3)
	NewSETF().Rates(0, jobs, unit(2), rates)
	approx(t, rates[1], 1, 1e-12, "least elapsed")
	approx(t, rates[0], 1, 1e-12, "second least")
	approx(t, rates[2], 0, 1e-12, "most elapsed")
}

func TestLAPSBetaOneIsRR(t *testing.T) {
	jobs := []core.JobView{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	a := make([]float64, 4)
	b := make([]float64, 4)
	NewLAPS(1).Rates(0, jobs, unit(2), a)
	NewRR().Rates(0, jobs, unit(2), b)
	for i := range a {
		approx(t, a[i], b[i], 1e-12, "LAPS(1) == RR")
	}
}

func TestLAPSFavorsLatest(t *testing.T) {
	jobs := []core.JobView{
		{ID: 0, Release: 0}, {ID: 1, Release: 1}, {ID: 2, Release: 2}, {ID: 3, Release: 3},
	}
	rates := make([]float64, 4)
	NewLAPS(0.5).Rates(3, jobs, unit(1), rates)
	approx(t, rates[0], 0, 1e-12, "oldest gets nothing")
	approx(t, rates[1], 0, 1e-12, "second oldest gets nothing")
	approx(t, rates[2], 0.5, 1e-12, "latest pair shares")
	approx(t, rates[3], 0.5, 1e-12, "latest pair shares")
}

func TestWRRProportionalToAge(t *testing.T) {
	jobs := []core.JobView{
		{ID: 0, Release: 0, Age: 3},
		{ID: 1, Release: 2, Age: 1},
	}
	rates := make([]float64, 2)
	NewWRR(0.01).Rates(3, jobs, unit(1), rates)
	approx(t, rates[0], 0.75, 1e-12, "older job share")
	approx(t, rates[1], 0.25, 1e-12, "younger job share")
}

func TestWRRCapsAtOne(t *testing.T) {
	jobs := []core.JobView{
		{ID: 0, Age: 100},
		{ID: 1, Age: 1},
		{ID: 2, Age: 1},
	}
	rates := make([]float64, 3)
	NewWRR(0.01).Rates(100, jobs, unit(2), rates)
	approx(t, rates[0], 1, 1e-12, "dominant age capped at 1")
	approx(t, rates[1], 0.5, 1e-12, "rest split remaining machine")
	approx(t, rates[2], 0.5, 1e-12, "rest split remaining machine")
}

func TestWRRCompletesRun(t *testing.T) {
	in := core.NewInstance([]core.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.5, Size: 1},
		{ID: 2, Release: 1, Size: 1.5},
	})
	res := run(t, in, NewWRR(0.01), 1, 1)
	if res.Makespan() < 4.4 || res.Makespan() > 4.6 {
		t.Fatalf("WRR makespan %v, want ≈ 4.5 (work conservation)", res.Makespan())
	}
}

func TestMLFQLevels(t *testing.T) {
	p := NewMLFQ(1)
	cases := []struct {
		elapsed float64
		level   int
	}{
		{0, 0}, {0.5, 0}, {0.999, 0}, {1, 1}, {2.9, 1}, {3, 2}, {6.9, 2}, {7, 3},
	}
	for _, c := range cases {
		if got := p.level(c.elapsed); got != c.level {
			t.Errorf("level(%v) = %d, want %d", c.elapsed, got, c.level)
		}
	}
	approx(t, p.levelEnd(0), 1, 1e-12, "level 0 end")
	approx(t, p.levelEnd(1), 3, 1e-12, "level 1 end")
	approx(t, p.levelEnd(2), 7, 1e-12, "level 2 end")
}

func TestMLFQApproximatesSETF(t *testing.T) {
	// Short job arriving during a long job's run should finish quickly:
	// the long job is demoted past level 0 and the short job takes over.
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 10}, {ID: 1, Release: 2, Size: 0.4}})
	res := run(t, in, NewMLFQ(0.5), 1, 1)
	if res.Flow[1] > 1 {
		t.Fatalf("MLFQ short-job flow %v, want < 1 (priority to low levels)", res.Flow[1])
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("want 12 registered policies, got %v", names)
	}
	for _, name := range names {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("NOPE"); err == nil {
		t.Fatal("New(NOPE) should fail")
	}
}

// TestNonclairvoyantPoliciesIgnoreSizes is the paper's non-clairvoyance
// contract as a property test: perturbing Size/Remaining must not change the
// rates of any non-clairvoyant policy, on identical machines or on uniform
// ones.
func TestNonclairvoyantPoliciesIgnoreSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, name := range Names() {
		p, _ := New(name)
		if p.Clairvoyant() {
			continue
		}
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.IntN(12)
			m := 1 + rng.IntN(3)
			now := rng.Float64() * 20
			jobs := make([]core.JobView, n)
			alt := make([]core.JobView, n)
			rel := 0.0
			for i := range jobs {
				rel += rng.Float64()
				age := now - rel
				if age < 0 {
					age = 0
				}
				elapsed := rng.Float64() * age
				jobs[i] = core.JobView{
					ID: i, Release: rel, Age: age, Elapsed: elapsed,
					Size: elapsed + rng.Float64()*5, Remaining: rng.Float64() * 5,
				}
				alt[i] = jobs[i]
				alt[i].Size = elapsed + rng.Float64()*50
				alt[i].Remaining = rng.Float64() * 50
			}
			for _, env := range []*core.MachineEnv{unit(m), uniform(m)} {
				r1 := make([]float64, n)
				r2 := make([]float64, n)
				h1 := p.Rates(now, jobs, env, r1)
				h2 := p.Rates(now, alt, env, r2)
				if h1 != h2 {
					t.Fatalf("%s identical=%v: horizon depends on sizes (%v vs %v)", name, env.Identical(), h1, h2)
				}
				for i := range r1 {
					if r1[i] != r2[i] {
						t.Fatalf("%s identical=%v trial %d: rate[%d] depends on sizes (%v vs %v)",
							name, env.Identical(), trial, i, r1[i], r2[i])
					}
				}
			}
		}
	}
}

// TestAllPoliciesFeasibleAndComplete runs every registered policy over
// random instances and checks schedule invariants end to end.
func TestAllPoliciesFeasibleAndComplete(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.IntN(20)
		jobs := make([]core.Job, n)
		rel := 0.0
		for i := range jobs {
			rel += rng.Float64() * 1.5
			jobs[i] = core.Job{ID: i, Release: rel, Size: 0.2 + rng.Float64()*4}
		}
		in := core.NewInstance(jobs)
		m := 1 + rng.IntN(3)
		speed := 1 + 2*rng.Float64()
		for _, name := range Names() {
			p, _ := New(name)
			var rec core.SegmentRecorder
			res, err := core.Run(in, p, core.Options{Machines: m, Speed: speed, Observer: &rec})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := core.ValidateResult(res, rec.Segments); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
	}
}

func TestWaterfillProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(raw []float64, mRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		for i, w := range raw {
			weights[i] = math.Abs(math.Mod(w, 100))
			if math.IsNaN(weights[i]) || math.IsInf(weights[i], 0) {
				weights[i] = 1
			}
		}
		M := float64(1 + int(mRaw)%4)
		if M > float64(len(weights)) {
			M = float64(len(weights))
		}
		rates := make([]float64, len(weights))
		waterfill(weights, M, rates, make([]bool, len(weights)))
		sum := 0.0
		for _, r := range rates {
			if r < -1e-9 || r > 1+1e-9 {
				return false
			}
			sum += r
		}
		// Full capacity must be used (M ≤ n here).
		return math.Abs(sum-M) < 1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWaterfillUncappedProportionality(t *testing.T) {
	weights := []float64{1, 2, 3}
	rates := make([]float64, 3)
	waterfill(weights, 1.2, rates, make([]bool, 3))
	approx(t, rates[0], 0.2, 1e-12, "w=1")
	approx(t, rates[1], 0.4, 1e-12, "w=2")
	approx(t, rates[2], 0.6, 1e-12, "w=3")
}

func TestWaterfillAllZeroWeights(t *testing.T) {
	weights := []float64{0, 0, 0, 0}
	rates := make([]float64, 4)
	waterfill(weights, 2, rates, make([]bool, 4))
	for _, r := range rates {
		approx(t, r, 0.5, 1e-12, "equal split fallback")
	}
}
