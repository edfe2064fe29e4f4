// Package dual implements the paper's dual-fitting analysis (Sections
// 3.2–3.4) as an executable certificate: given a concrete Round Robin
// schedule, it constructs the dual variables α_j and β_t exactly as the
// paper prescribes, verifies Lemmas 1–4's conclusions and the dual
// constraints numerically, and reports the competitive-ratio bound the
// certificate implies.
//
// Recap of the construction. RR runs at speed η := 2k(1+10ε) on m machines.
// With T_o = {t : n_t ≥ m} the overloaded times and T_u the rest, and
// A(t, r_j) the alive jobs released no later than j (including j):
//
//	α_j = ∫_{[r_j,C_j] ∩ T_o} Σ_{j' ∈ A(t, r_j)} k(t−r_{j'})^{k−1} / n_t dt
//	    + ∫_{[r_j,C_j] ∩ T_u} k(t−r_j)^{k−1} dt  −  ε·F_j^k
//
//	β_t = (1/2 − 3ε)/m · Σ_j 1[t ∈ [r_j, C_j + δF_j]] · F_j^{k−1},  δ = ε.
//
// At overloaded times each job is "responsible" for the (1/n_t)-damped
// instantaneous objective increase of every earlier-arriving alive job —
// the amortized accounting the paper credits to Edmonds–Pruhs — so that
// summing α over jobs recovers at least half of Σ_j k·age_j^{k−1} at every
// time (Lemma 1). Every integrand is constant on the engine's segments, so
// α is computed in closed form: ∫_a^b k(t−r)^{k−1} dt = (b−r)^k − (a−r)^k.
//
// Feasible duals satisfy α_j ≤ γ((t−r_j)^k + p_j^k) + p_j·β_t for all
// t ≥ r_j with γ = k(k/ε)^k, and then
//
//	Ω(ε)·Σ F_j^k ≤ dual objective ≤ LP_γ ≤ 2γ·OPT^k,
//
// which is Theorem 1 after taking k-th roots.
package dual

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rrnorm/internal/core"
	"rrnorm/internal/metrics"
)

// Eta returns the paper's speed requirement η = 2k(1+10ε) for Theorem 1.
func Eta(k int, eps float64) float64 { return 2 * float64(k) * (1 + 10*eps) }

// Gamma returns the paper's LP scaling constant γ = k(k/ε)^k.
func Gamma(k int, eps float64) float64 {
	return float64(k) * math.Pow(float64(k)/eps, float64(k))
}

// Certificate is the result of building and checking the dual solution.
type Certificate struct {
	K      int
	Eps    float64 // ε ∈ (0, 1/10]
	Delta  float64 // δ = ε (post-completion β window factor)
	Gamma  float64 // γ = k(k/ε)^k
	EtaReq float64 // speed Theorem 1 requires: 2k(1+10ε)
	Speed  float64 // speed the schedule was actually run at

	// RRPower is Σ_j F_j^k of the analyzed schedule.
	RRPower float64
	// Alpha holds α_j (pre-clamping) per job, in normalized order.
	Alpha []float64
	// AlphaSum is Σ_j max(α_j, 0) — the clamped values used in the
	// objective (dual feasibility needs α ≥ 0; clamping only lowers the
	// objective).
	AlphaSum float64
	// BetaIntegral is m·∫β_t dt = (1+δ)(1/2−3ε)·RRPower (closed form,
	// cross-checked against the event structure).
	BetaIntegral float64
	// DualObjective = AlphaSum − BetaIntegral.
	DualObjective float64

	// Lemma1: Σ_j α_j ≥ (1/2−ε)·RRPower (paper's Lemma 1).
	Lemma1LHS, Lemma1RHS float64
	Lemma1OK             bool
	// Lemma2: m·∫β_t dt ≤ (1/2−2ε)·RRPower (paper's Lemma 2).
	Lemma2LHS, Lemma2RHS float64
	Lemma2OK             bool
	// ObjectiveFraction = DualObjective / RRPower; the paper proves it is
	// ≥ ε when the speed is at least EtaReq.
	ObjectiveFraction float64

	// MaxViolation is max over jobs j and candidate times t of
	// α_j − γ((t−r_j)^k + p_j^k) − p_j β_t, normalized by γ·p_j^k.
	// Feasibility means ≤ 0 (up to float tolerance).
	MaxViolation float64
	ViolatingJob int // job ID attaining MaxViolation (-1 if none positive)
	Feasible     bool
	// JobSlack holds each job's worst constraint value (normalized; ≤ 0
	// means that job's constraints all hold), in normalized job order —
	// the per-job diagnostic behind MaxViolation.
	JobSlack []float64

	// ImpliedPowerRatio bounds Σ F^k ≤ ImpliedPowerRatio · OPT^k when
	// Feasible (= 2γ / ObjectiveFraction); ImpliedNormRatio is its k-th
	// root, the ℓk-norm competitive ratio certified for this instance.
	ImpliedPowerRatio float64
	ImpliedNormRatio  float64
}

// Errors returned by Build.
var (
	ErrNeedSegments = errors.New("dual: result lacks segments (attach a core.SegmentRecorder)")
	ErrBadEps       = errors.New("dual: eps must be in (0, 0.1]")
)

// checkParams validates Build's (and WitnessObserver's) parameter domain.
func checkParams(k int, eps float64) error {
	if !(eps > 0 && eps <= 0.1) {
		return fmt.Errorf("%w: %v", ErrBadEps, eps)
	}
	if k < 1 {
		return fmt.Errorf("dual: k must be ≥ 1, got %d", k)
	}
	return nil
}

// alphaEpoch folds one rate-constant interval [start, end) into alpha —
// the α accumulation shared by the Segment walk (Build) and the streaming
// WitnessObserver, so both produce bitwise-identical α vectors. jobs is the
// interval's alive set in (Release, ID) order, so A(t, r_j) is exactly the
// prefix ending at j; a running prefix sum of the per-job age integrals
// gives every job's overloaded contribution in one pass.
func alphaEpoch(alpha, releases []float64, jobs []int, start, end float64, k int, overloaded bool) {
	nt := float64(len(jobs))
	if overloaded {
		prefix := 0.0
		for _, idx := range jobs {
			r := releases[idx]
			prefix += metrics.PowK(end-r, k) - metrics.PowK(start-r, k)
			alpha[idx] += prefix / nt
		}
	} else {
		for _, idx := range jobs {
			r := releases[idx]
			alpha[idx] += metrics.PowK(end-r, k) - metrics.PowK(start-r, k)
		}
	}
}

// Build constructs and checks the paper's dual solution for a run and its
// rate timeline segs, recorded by a core.SegmentRecorder (intended: RR at
// speed ≥ 2k(1+10ε); the construction itself only needs the timeline).
// k ≥ 1; eps ∈ (0, 0.1].
func Build(res *core.Result, segs []core.Segment, k int, eps float64) (*Certificate, error) {
	if core.TimelineMissing(res, segs) {
		return nil, ErrNeedSegments
	}
	if err := checkParams(k, eps); err != nil {
		return nil, err
	}
	n := len(res.Jobs)
	alpha := make([]float64, n)
	releases := make([]float64, n)
	for i := range res.Jobs {
		releases[i] = res.Jobs[i].Release
	}
	// α: accumulate per-segment closed-form integrals.
	for si := range segs {
		seg := &segs[si]
		alphaEpoch(alpha, releases, seg.Jobs, seg.Start, seg.End, k, seg.OverloadedAt(res.Machines))
	}
	return finishCertificate(res, k, eps, alpha), nil
}

// finishCertificate turns an accumulated α vector into the full checked
// Certificate: ε·F^k subtraction and clamping, the closed-form β integral
// and its step function, Lemma 1/2 checks, and the dual-constraint sweep.
// It is the shared back half of Build and WitnessObserver.ObserveDone; the
// certificate takes ownership of alpha.
func finishCertificate(res *core.Result, k int, eps float64, alpha []float64) *Certificate {
	n := len(res.Jobs)
	c := &Certificate{
		K: k, Eps: eps, Delta: eps,
		Gamma:  Gamma(k, eps),
		EtaReq: Eta(k, eps),
		Speed:  res.Speed,
	}
	c.RRPower = metrics.KthPowerSum(res.Flow, k)
	c.Alpha = alpha
	if n == 0 {
		c.Feasible = true
		c.ViolatingJob = -1
		return c
	}
	var alphaRaw float64
	for i := range c.Alpha {
		c.Alpha[i] -= eps * metrics.PowK(res.Flow[i], k)
		alphaRaw += c.Alpha[i]
		if c.Alpha[i] > 0 {
			c.AlphaSum += c.Alpha[i]
		}
	}

	// β: closed-form integral and a step function for constraint checks.
	// m·∫β dt = (1/2−3ε)·Σ_j (1+δ)F_j^k.
	factor := 0.5 - 3*eps
	c.BetaIntegral = factor * (1 + c.Delta) * c.RRPower
	beta := buildBetaSteps(res, k, factor, c.Delta)

	c.DualObjective = c.AlphaSum - c.BetaIntegral
	c.ObjectiveFraction = 0
	if c.RRPower > 0 {
		c.ObjectiveFraction = c.DualObjective / c.RRPower
	}

	c.Lemma1LHS = alphaRaw
	c.Lemma1RHS = (0.5 - eps) * c.RRPower
	c.Lemma1OK = c.Lemma1LHS >= c.Lemma1RHS-1e-9*(1+math.Abs(c.Lemma1RHS))
	c.Lemma2LHS = c.BetaIntegral
	c.Lemma2RHS = (0.5 - 2*eps) * c.RRPower
	c.Lemma2OK = c.Lemma2LHS <= c.Lemma2RHS+1e-9*(1+math.Abs(c.Lemma2RHS))

	// Dual constraints: for each job, the binding candidate times are r_j
	// and the β step breakpoints after r_j (between breakpoints β is
	// constant and γ(t−r_j)^k increases, so the left endpoint dominates).
	// The sweep over breakpoints stops once the β-free bound
	// (a − γ((t−r_j)^k + p^k)) / (γ·p^k) is ≤ the job's worst value so far:
	// p·β ≥ 0 and rounded arithmetic and PowK are monotone, so that bound is
	// ≥ every later candidate's value and non-increasing in t, and the stop
	// changes no result bit. (The float64 conversion keeps the bound's
	// product from fusing with the subtraction.)
	c.ViolatingJob = -1
	c.JobSlack = make([]float64, n)
	worst := math.Inf(-1)
	for i, j := range res.Jobs {
		a := c.Alpha[i]
		if a < 0 {
			a = 0
		}
		pk := metrics.PowK(j.Size, k)
		jobWorst := math.Inf(-1)
		slack := func(age, b float64) float64 {
			rhs := c.Gamma*(metrics.PowK(age, k)+pk) + j.Size*b
			return (a - rhs) / (c.Gamma * pk)
		}
		if v := slack(0, beta.at(j.Release)); v > jobWorst {
			jobWorst = v
		}
		// A breakpoint at r_j itself repeats the check above, harmlessly.
		for bi := sort.SearchFloat64s(beta.times, j.Release); bi < len(beta.times); bi++ {
			age := beta.times[bi] - j.Release
			if bound := (a - float64(c.Gamma*(metrics.PowK(age, k)+pk))) / (c.Gamma * pk); bound <= jobWorst {
				break
			}
			if v := slack(age, beta.values[bi]); v > jobWorst {
				jobWorst = v
			}
		}
		c.JobSlack[i] = jobWorst
		if jobWorst > worst {
			worst = jobWorst
			if jobWorst > 0 {
				c.ViolatingJob = j.ID
			}
		}
	}
	c.MaxViolation = worst
	c.Feasible = worst <= 1e-9

	if c.Feasible && c.ObjectiveFraction > 0 {
		c.ImpliedPowerRatio = 2 * c.Gamma / c.ObjectiveFraction
		c.ImpliedNormRatio = math.Pow(c.ImpliedPowerRatio, 1/float64(k))
	} else {
		c.ImpliedPowerRatio = math.Inf(1)
		c.ImpliedNormRatio = math.Inf(1)
	}
	return c
}

// betaSteps is the piecewise-constant β_t: value values[i] on
// [times[i], times[i+1]).
type betaSteps struct {
	times  []float64
	values []float64
}

// buildBetaSteps assembles β_t = factor/m · Σ_j 1[t∈[r_j, C_j+δF_j]]·F_j^{k−1}.
func buildBetaSteps(res *core.Result, k int, factor, delta float64) *betaSteps {
	type ev struct {
		t float64
		w float64
	}
	evs := make([]ev, 0, 2*len(res.Jobs))
	for i, j := range res.Jobs {
		w := metrics.PowK(res.Flow[i], k-1)
		evs = append(evs, ev{j.Release, w})
		evs = append(evs, ev{res.Completion[i] + delta*res.Flow[i], -w})
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].t < evs[b].t })
	b := &betaSteps{}
	cur := 0.0
	scale := factor / float64(res.Machines)
	for i := 0; i < len(evs); {
		t := evs[i].t
		for i < len(evs) && evs[i].t == t {
			cur += evs[i].w
			i++
		}
		b.times = append(b.times, t)
		v := cur * scale
		if v < 0 {
			v = 0 // float dust from cancelling ± weights
		}
		b.values = append(b.values, v)
	}
	return b
}

// at evaluates β at time t (right-continuous).
func (b *betaSteps) at(t float64) float64 {
	i := sort.SearchFloat64s(b.times, t)
	if i < len(b.times) && b.times[i] == t {
		return b.values[i]
	}
	if i == 0 {
		return 0
	}
	return b.values[i-1]
}

// VerifyIntegral cross-checks the closed-form BetaIntegral against the step
// function (trapezoid-free exact sum); exposed for tests.
func (b *betaSteps) integral() float64 {
	var s float64
	for i := 0; i+1 < len(b.times); i++ {
		s += b.values[i] * (b.times[i+1] - b.times[i])
	}
	return s
}

// BetaIntegralFromSteps recomputes m·∫β_t dt from the step representation;
// used by tests to validate the closed form.
func BetaIntegralFromSteps(res *core.Result, k int, eps float64) float64 {
	b := buildBetaSteps(res, k, 0.5-3*eps, eps)
	return b.integral() * float64(res.Machines)
}

// JobDiagnostic pairs a job ID with its worst normalized constraint value.
type JobDiagnostic struct {
	JobID int
	Slack float64 // ≤ 0: all constraints hold for this job
	Alpha float64
	Flow  float64
}

// TopBinding returns the count jobs whose constraints are closest to (or
// beyond) violation, most binding first — the diagnostic view of where the
// analysis is tight on this instance.
func (c *Certificate) TopBinding(res *core.Result, count int) []JobDiagnostic {
	out := make([]JobDiagnostic, 0, len(c.JobSlack))
	for i, s := range c.JobSlack {
		out = append(out, JobDiagnostic{
			JobID: res.Jobs[i].ID,
			Slack: s,
			Alpha: c.Alpha[i],
			Flow:  res.Flow[i],
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Slack > out[b].Slack })
	if count < len(out) {
		out = out[:count]
	}
	return out
}

// String renders a compact report.
func (c *Certificate) String() string {
	status := "INFEASIBLE"
	if c.Feasible {
		status = "feasible"
	}
	return fmt.Sprintf(
		"dual certificate k=%d ε=%.3g (η_req=%.3g, ran at s=%.3g): %s\n"+
			"  Σα=%.6g  m∫β=%.6g  D=%.6g  D/RR^k=%.4f\n"+
			"  Lemma1 %v (%.6g ≥ %.6g)  Lemma2 %v (%.6g ≤ %.6g)\n"+
			"  max constraint violation %.3g (job %d)\n"+
			"  implied ℓ%d-norm ratio ≤ %.4g",
		c.K, c.Eps, c.EtaReq, c.Speed, status,
		c.AlphaSum, c.BetaIntegral, c.DualObjective, c.ObjectiveFraction,
		c.Lemma1OK, c.Lemma1LHS, c.Lemma1RHS, c.Lemma2OK, c.Lemma2LHS, c.Lemma2RHS,
		c.MaxViolation, c.ViolatingJob, c.K, c.ImpliedNormRatio)
}
