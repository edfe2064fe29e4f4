package policy

import (
	"math"

	"rrnorm/internal/core"
)

// LAPS is Latest Arrival Processor Sharing with parameter Beta ∈ (0,1]: the
// ⌈β·n_t⌉ most recently released alive jobs share the machines equally, each
// receiving rate min{1, m/⌈β·n_t⌉}. With Beta = 1 it degenerates to RR.
// LAPS is the classic non-clairvoyant scalable policy for ℓ1 flow time
// (Edmonds–Pruhs, cited by the paper); it is included as the favoritism
// counterpoint to RR's equal split.
type LAPS struct {
	Beta float64
}

// NewLAPS returns LAPS with the given β ∈ (0,1]. Values outside the range
// are clamped.
func NewLAPS(beta float64) *LAPS {
	if beta <= 0 {
		beta = 0.5
	}
	if beta > 1 {
		beta = 1
	}
	return &LAPS{Beta: beta}
}

// Name implements core.Policy.
func (*LAPS) Name() string { return "LAPS" }

// Clairvoyant implements core.Policy.
func (*LAPS) Clairvoyant() bool { return false }

// Rates implements core.Policy: the ⌈β·n⌉ latest arrivals share the
// machines at RR's fair share for a group of their size, env.FairShare(g).
func (p *LAPS) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	n := len(jobs)
	g := int(math.Ceil(p.Beta * float64(n)))
	if g < 1 {
		g = 1
	}
	if g > n {
		g = n
	}
	share := env.FairShare(g)
	// jobs are ordered by (Release, ID); the latest g arrivals are the
	// suffix. Ties at the boundary release share the suffix deterministically
	// by ID, matching the engine's ordering.
	for i := n - g; i < n; i++ {
		rates[i] = share
	}
	return core.NoHorizon
}
