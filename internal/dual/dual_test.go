package dual

import (
	"errors"
	"math"
	"strings"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/lp"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// runRR runs RR with a SegmentRecorder attached and returns the result and
// its recorded rate timeline.
func runRR(t *testing.T, in *core.Instance, m int, speed float64) (*core.Result, []core.Segment) {
	t.Helper()
	var rec core.SegmentRecorder
	res, err := core.Run(in, policy.NewRR(), core.Options{Machines: m, Speed: speed, Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Segments
}

func TestConstants(t *testing.T) {
	if got := Eta(2, 0.05); math.Abs(got-6) > 1e-12 {
		t.Fatalf("Eta(2, .05)=%v, want 6", got)
	}
	if got := Gamma(1, 0.1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Gamma(1,.1)=%v, want 10", got)
	}
	if got := Gamma(2, 0.1); math.Abs(got-800) > 1e-6 {
		t.Fatalf("Gamma(2,.1)=%v, want 2·(20)²=800", got)
	}
}

func TestBuildErrors(t *testing.T) {
	in := core.NewInstance([]core.Job{{ID: 0, Release: 0, Size: 1}})
	res, segs := runRR(t, in, 1, 1)
	if _, err := Build(res, nil, 2, 0.05); !errors.Is(err, ErrNeedSegments) {
		t.Fatalf("want ErrNeedSegments, got %v", err)
	}
	if _, err := Build(res, segs, 2, 0.5); !errors.Is(err, ErrBadEps) {
		t.Fatalf("want ErrBadEps, got %v", err)
	}
	if _, err := Build(res, segs, 2, 0); !errors.Is(err, ErrBadEps) {
		t.Fatalf("eps=0: want ErrBadEps, got %v", err)
	}
	if _, err := Build(res, segs, 0, 0.05); err == nil {
		t.Fatal("k=0 should fail")
	}
}

// TestEmptySchedule: a run with no work has an empty timeline, which Build
// must accept — for no jobs, and for zero-size jobs that complete at
// admission.
func TestEmptySchedule(t *testing.T) {
	for name, jobs := range map[string][]core.Job{
		"no jobs":            nil,
		"two zero-size jobs": {{ID: 0, Release: 0}, {ID: 1, Release: 1}},
	} {
		res, segs := runRR(t, core.NewInstance(jobs), 1, 1)
		c, err := Build(res, segs, 2, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !c.Feasible {
			t.Fatalf("%s: empty schedule should be trivially feasible", name)
		}
	}
}

// TestTheoremSpeedCertificate is the executable version of Theorem 1: at
// speed η = 2k(1+10ε), the paper's dual solution must be feasible, satisfy
// Lemmas 1 and 2, and have dual objective at least ε·Σ F_j^k — across
// workload shapes, machine counts and k.
func TestTheoremSpeedCertificate(t *testing.T) {
	const eps = 0.05
	cases := []struct {
		name string
		in   *core.Instance
		m    int
	}{
		{"poisson-m1", workload.PoissonLoad(stats.NewRNG(1), 60, 1, 0.9, workload.ExpSizes{M: 1}), 1},
		{"poisson-m4", workload.PoissonLoad(stats.NewRNG(2), 80, 4, 0.9, workload.ExpSizes{M: 1}), 4},
		{"heavytail", workload.PoissonLoad(stats.NewRNG(3), 50, 1, 0.8, workload.ParetoSizes{Alpha: 1.6, Xm: 1}), 1},
		{"rrstream", workload.RRStream(24, 1), 1},
		{"rrstream-m2", workload.RRStream(16, 2), 2},
		{"batch", workload.Batch(stats.NewRNG(4), 20, workload.UniformSizes{Lo: 0.5, Hi: 3}), 2},
		{"bursts", workload.PeriodicBursts(stats.NewRNG(5), 5, 8, 6, workload.ExpSizes{M: 1}), 2},
	}
	for _, k := range []int{1, 2, 3} {
		for _, tc := range cases {
			res, segs := runRR(t, tc.in, tc.m, Eta(k, eps))
			c, err := Build(res, segs, k, eps)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			if !c.Feasible {
				t.Errorf("%s k=%d: dual infeasible at theorem speed (viol %v, job %d)",
					tc.name, k, c.MaxViolation, c.ViolatingJob)
			}
			if !c.Lemma1OK {
				t.Errorf("%s k=%d: Lemma 1 fails (%v < %v)", tc.name, k, c.Lemma1LHS, c.Lemma1RHS)
			}
			if !c.Lemma2OK {
				t.Errorf("%s k=%d: Lemma 2 fails (%v > %v)", tc.name, k, c.Lemma2LHS, c.Lemma2RHS)
			}
			if c.ObjectiveFraction < eps-1e-9 {
				t.Errorf("%s k=%d: dual objective fraction %v < ε=%v", tc.name, k, c.ObjectiveFraction, eps)
			}
			if math.IsInf(c.ImpliedNormRatio, 1) || c.ImpliedNormRatio <= 0 {
				t.Errorf("%s k=%d: implied ratio %v", tc.name, k, c.ImpliedNormRatio)
			}
		}
	}
}

// TestLowSpeedCanBeInfeasible: at speed 1 on a loaded instance with k ≥ 2
// the same dual construction is NOT feasible — evidence that the speed
// requirement in the analysis is doing real work.
func TestLowSpeedCanBeInfeasible(t *testing.T) {
	in := workload.PoissonLoad(stats.NewRNG(1), 60, 1, 0.9, workload.ExpSizes{M: 1})
	res, segs := runRR(t, in, 1, 1)
	c, err := Build(res, segs, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if c.Feasible {
		t.Fatal("expected infeasible dual at speed 1, k=2 on a loaded instance")
	}
	if !math.IsInf(c.ImpliedNormRatio, 1) {
		t.Fatalf("infeasible certificate must imply no ratio, got %v", c.ImpliedNormRatio)
	}
}

// TestDualObjectiveBelowLP: weak duality cross-check against the primal LP.
// The feasible dual objective lower-bounds the γ-scaled LP optimum, which
// our lp package computes (un-γ-scaled) on the same instance:
// D ≤ γ·LP_1 where LP_1 is the un-scaled LP value.
func TestDualObjectiveBelowLP(t *testing.T) {
	const eps = 0.05
	in := workload.PoissonLoad(stats.NewRNG(7), 25, 1, 0.8, workload.ExpSizes{M: 1})
	for _, k := range []int{1, 2} {
		res, segs := runRR(t, in, 1, Eta(k, eps))
		c, err := Build(res, segs, k, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Feasible {
			t.Fatalf("k=%d: expected feasible", k)
		}
		b, err := lp.KPowerLowerBound(in, 1, k, lp.Options{Slots: 600, MaxUnits: 60000})
		if err != nil {
			t.Fatal(err)
		}
		// The discrete LP slightly under-estimates the continuous LP; a 5%
		// cushion absorbs that.
		if c.DualObjective > c.Gamma*b.LPValue*1.05 {
			t.Fatalf("k=%d: weak duality violated: D=%v > γ·LP=%v", k, c.DualObjective, c.Gamma*b.LPValue)
		}
		// And the certified chain: RR^k ≤ (2γ/fraction)·OPT^k with
		// OPT^k ≥ LP/2 means RR^k ≤ ImpliedPowerRatio · anything ≥ OPT^k.
		rrPower := metrics.KthPowerSum(res.Flow, k)
		if rrPower > c.ImpliedPowerRatio*b.Value*1.05 {
			t.Fatalf("k=%d: certified chain broken: RR^k=%v > implied %v × bound %v",
				k, rrPower, c.ImpliedPowerRatio, b.Value)
		}
	}
}

// TestBetaClosedFormMatchesSteps validates the closed-form β integral
// against the event-based step function.
func TestBetaClosedFormMatchesSteps(t *testing.T) {
	const eps = 0.05
	in := workload.PoissonLoad(stats.NewRNG(8), 40, 2, 0.9, workload.ExpSizes{M: 1})
	for _, k := range []int{1, 2, 3} {
		res, segs := runRR(t, in, 2, Eta(k, eps))
		c, err := Build(res, segs, k, eps)
		if err != nil {
			t.Fatal(err)
		}
		steps := BetaIntegralFromSteps(res, k, eps)
		if math.Abs(steps-c.BetaIntegral) > 1e-6*(1+c.BetaIntegral) {
			t.Fatalf("k=%d: step integral %v != closed form %v", k, steps, c.BetaIntegral)
		}
	}
}

// TestAlphaSumScalesWithObjective: for a single job, α = (1−ε)F^k exactly
// (one alive job: overloaded iff m=1, rank 1, n_t=1).
func TestSingleJobAlpha(t *testing.T) {
	in := core.NewInstance([]core.Job{{ID: 0, Release: 2, Size: 4}})
	res, segs := runRR(t, in, 1, 2) // F = 2
	c, err := Build(res, segs, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 - 0.05) * 4.0 // (1−ε)·F² with F=2
	if math.Abs(c.Alpha[0]-want) > 1e-9 {
		t.Fatalf("α=%v, want %v", c.Alpha[0], want)
	}
	if math.Abs(c.RRPower-4) > 1e-9 {
		t.Fatalf("RRPower %v", c.RRPower)
	}
}

func TestCertificateString(t *testing.T) {
	in := workload.Batch(stats.NewRNG(9), 5, workload.FixedSizes{V: 1})
	res, segs := runRR(t, in, 1, Eta(2, 0.05))
	c, err := Build(res, segs, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := c.String()
	for _, want := range []string{"dual certificate", "Lemma1", "Lemma2", "feasible"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestEpsilonSweep: the certificate must hold across the admissible ε range
// at the matching theorem speed (the analysis needs ε ≤ 1/15 for the
// Lemma 4 constant to go through cleanly; we sweep below that).
func TestEpsilonSweep(t *testing.T) {
	in := workload.PoissonLoad(stats.NewRNG(10), 40, 1, 0.85, workload.ExpSizes{M: 1})
	for _, eps := range []float64{0.01, 0.03, 0.05, 1.0 / 15} {
		res, segs := runRR(t, in, 1, Eta(2, eps))
		c, err := Build(res, segs, 2, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Feasible || !c.Lemma1OK || !c.Lemma2OK {
			t.Errorf("eps=%v: feas=%v L1=%v L2=%v viol=%v", eps, c.Feasible, c.Lemma1OK, c.Lemma2OK, c.MaxViolation)
		}
	}
}

func TestJobSlackAndTopBinding(t *testing.T) {
	in := workload.PoissonLoad(stats.NewRNG(12), 30, 1, 0.9, workload.ExpSizes{M: 1})
	res, segs := runRR(t, in, 1, Eta(2, 0.05))
	c, err := Build(res, segs, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.JobSlack) != len(res.Jobs) {
		t.Fatalf("JobSlack length %d", len(c.JobSlack))
	}
	// Feasible certificate ⇒ every job slack ≤ tolerance, and the max
	// equals MaxViolation.
	worst := c.JobSlack[0]
	for _, s := range c.JobSlack {
		if s > 1e-9 {
			t.Fatalf("feasible certificate with positive slack %v", s)
		}
		if s > worst {
			worst = s
		}
	}
	if math.Abs(worst-c.MaxViolation) > 1e-12 {
		t.Fatalf("max slack %v != MaxViolation %v", worst, c.MaxViolation)
	}
	top := c.TopBinding(res, 5)
	if len(top) != 5 {
		t.Fatalf("top length %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Slack > top[i-1].Slack {
			t.Fatal("TopBinding not sorted")
		}
	}
	if top[0].Slack != worst {
		t.Fatalf("top slack %v != worst %v", top[0].Slack, worst)
	}
}
