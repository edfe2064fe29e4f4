package policy

import (
	"math"

	"rrnorm/internal/core"
)

// SETF is Shortest Elapsed Time First: machines are devoted to the alive
// jobs with the least processing received so far, with the boundary group
// (jobs tied at the cutoff elapsed level) sharing the leftover capacity
// equally. Non-clairvoyant; scalable for ℓk-norms on a single machine
// (Bansal–Pruhs) — the paper's Related Work notes only a fractional variant
// is known scalable on multiple machines, which is exactly the rate-based
// sharing simulated here.
//
// Jobs with equal elapsed time and equal rate stay tied, so rate changes
// between arrivals/completions happen only when a faster (lower-elapsed)
// group catches a slower one; SETF returns that exact catch-up moment as its
// review horizon.
type SETF struct {
	rank   byKey
	groups []setfGroup
}

// setfGroup is one elapsed-level tier of the water-fill: a run of the
// elapsed ranking sharing an elapsed level and the rate that level
// received. The slice lives on the policy so Rates appends into reused
// backing instead of growing a fresh one every call.
type setfGroup struct {
	start, end int // [start, end) in the ranking
	elapsed    float64
	rate       float64
}

// NewSETF returns a new SETF policy.
func NewSETF() *SETF { return &SETF{} }

// Name implements core.Policy.
func (*SETF) Name() string { return "SETF" }

// Clairvoyant implements core.Policy.
func (*SETF) Clairvoyant() bool { return false }

// Rates implements core.Policy: elapsed-level tiers fill the speed profile
// fastest-machines-first — a tier of g jobs starting at fractional machine
// offset x shares the profile capacity over [x, x+g) equally
// (core.MachineEnv.ProfileIntegral). Concavity of the profile (speeds
// descending) makes the resulting sorted-rate prefix sums feasible; on
// identical unit machines ProfileIntegral(x) is min(x, m), so a tier gets
// min(g, capacity left)/g.
func (p *SETF) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	n := len(jobs)
	idx := p.order(jobs)

	filled := 0.0 // fractional machines already devoted to faster tiers
	groups := p.groups[:0]
	for s := 0; s < n; {
		e := jobs[idx[s]].Elapsed
		t := s + 1
		for t < n && sameElapsed(jobs[idx[t]].Elapsed, e) {
			t++
		}
		g := float64(t - s)
		alloc := env.ProfileIntegral(filled+g) - env.ProfileIntegral(filled)
		rate := alloc / g
		for k := s; k < t; k++ {
			rates[idx[k]] = rate
		}
		filled += g
		groups = append(groups, setfGroup{start: s, end: t, elapsed: e, rate: rate})
		s = t
	}
	p.groups = groups // keep the grown backing for the next call

	// Exact catch-up horizon: the first moment a group reaches the elapsed
	// level of the next (slower) group.
	horizon := math.Inf(1)
	for i := 0; i+1 < len(groups); i++ {
		dRate := groups[i].rate - groups[i+1].rate
		if dRate <= 0 {
			continue
		}
		gap := groups[i+1].elapsed - groups[i].elapsed
		if h := gap / (dRate * env.Speed); h < horizon {
			horizon = h
		}
	}
	if math.IsInf(horizon, 1) {
		return core.NoHorizon
	}
	return horizon
}

// order ranks jobs by elapsed time, then release, then ID.
func (p *SETF) order(jobs []core.JobView) []int {
	key := p.rank.keys(jobs)
	for i, j := range jobs {
		key[i] = j.Elapsed
	}
	return p.rank.sort()
}

// sameElapsed groups elapsed levels with a relative tolerance so that jobs
// that advanced together (identical float updates) — and only those — merge.
func sameElapsed(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}
