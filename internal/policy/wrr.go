package policy

import (
	"math"

	"rrnorm/internal/core"
)

// WRR is the age-weighted Round Robin variant from the paper's backstory
// (Section 1.2, citing Edmonds–Im–Moseley): at every moment machines are
// distributed to jobs in proportion to their ages (time since release),
// capped at one machine per job. That weighting matches each alive job's
// instantaneous contribution to the ℓ2 objective (twice its age) and is
// known O(1)-speed O(1)-competitive for the ℓ2-norm, whereas plain RR —
// oblivious to ages — is the harder object the paper analyzes.
//
// Ages grow continuously, so the rates drift between events; WRR re-plans on
// a review quantum: horizon = max(Quantum, RelDrift·min age), keeping the
// relative weight error per step bounded while avoiding event explosions
// once ages are large.
type WRR struct {
	// Quantum is the minimum review interval (wall-clock). Must be > 0.
	Quantum float64
	// RelDrift bounds the relative age drift per step (default 0.05).
	RelDrift float64

	buf shareBuf
}

// NewWRR returns an age-weighted Round Robin with the given review quantum.
func NewWRR(quantum float64) *WRR { return &WRR{Quantum: quantum, RelDrift: 0.05} }

// Name implements core.Policy.
func (*WRR) Name() string { return "WRR" }

// Clairvoyant implements core.Policy.
func (*WRR) Clairvoyant() bool { return false }

// Rates implements core.Policy.
func (p *WRR) Rates(now float64, jobs []core.JobView, m int, speed float64, rates []float64) float64 {
	w, minAge := p.ages(jobs)
	waterfill(w, math.Min(float64(m), float64(len(jobs))), rates, p.buf.capped)
	return p.horizon(minAge)
}

// RatesEnv implements core.MachineAware: age-proportional shares via the
// largest uniform scaling feasible on the speed profile (propFillEnv),
// re-planned on the same drift-bounded quantum as the identical path.
func (p *WRR) RatesEnv(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	w, minAge := p.ages(jobs)
	propFillEnv(w, env, rates, &p.buf.desc)
	return p.horizon(minAge)
}

// ages fills the policy's weight column with the jobs' ages and returns it
// with the smallest age.
func (p *WRR) ages(jobs []core.JobView) ([]float64, float64) {
	w := p.buf.column(len(jobs))
	minAge := math.Inf(1)
	for i, j := range jobs {
		w[i] = j.Age
		if j.Age < minAge {
			minAge = j.Age
		}
	}
	return w, minAge
}

// horizon is the review interval max(Quantum, RelDrift·minAge).
func (p *WRR) horizon(minAge float64) float64 {
	q := p.Quantum
	if q <= 0 {
		q = 1e-3
	}
	drift := p.RelDrift
	if drift <= 0 {
		drift = 0.05
	}
	if h := drift * minAge; h > q {
		return h
	}
	return q
}
