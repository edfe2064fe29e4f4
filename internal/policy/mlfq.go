package policy

import (
	"math"

	"rrnorm/internal/core"
)

// MLFQ is a multi-level feedback queue with geometrically growing quanta:
// level q holds jobs whose elapsed processing lies in
// [q0·(2^q − 1), q0·(2^{q+1} − 1)); lower levels have priority and levels
// are served FCFS, with the top m jobs each getting a full machine. MLFQ is
// the classic practical approximation of SETF used by operating systems —
// included because the paper's motivation (Silberschatz et al.) is exactly
// the OS scheduling setting.
type MLFQ struct {
	// BaseQuantum is q0 > 0, the level-0 quantum.
	BaseQuantum float64

	rank byKey
}

// NewMLFQ returns an MLFQ with the given base quantum.
func NewMLFQ(baseQuantum float64) *MLFQ {
	if baseQuantum <= 0 {
		baseQuantum = 1
	}
	return &MLFQ{BaseQuantum: baseQuantum}
}

// Name implements core.Policy.
func (*MLFQ) Name() string { return "MLFQ" }

// Clairvoyant implements core.Policy.
func (*MLFQ) Clairvoyant() bool { return false }

// level returns the queue level for a given elapsed time.
func (p *MLFQ) level(elapsed float64) int {
	// level q iff elapsed ∈ [q0(2^q − 1), q0(2^{q+1} − 1)).
	return int(math.Floor(math.Log2(elapsed/p.BaseQuantum + 1)))
}

// levelEnd returns the elapsed threshold at which a job leaves level q.
func (p *MLFQ) levelEnd(q int) float64 {
	return p.BaseQuantum * (math.Pow(2, float64(q+1)) - 1)
}

// Rates implements core.Policy: lower levels have strict priority, with
// the k-th ranked job on the k-th fastest machine; the demotion horizon
// accounts for each job's machine-dependent work rate.
func (p *MLFQ) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.order(jobs).topM(env, rates)
	return p.demotion(jobs, rates, env.Speed)
}

// order ranks jobs by queue level, then release, then ID. The level column
// is the sort key, kept as float64 (levels are small integers, so the
// conversion is exact and the order unchanged).
func (p *MLFQ) order(jobs []core.JobView) *byKey {
	key := p.rank.keys(jobs)
	for i, j := range jobs {
		key[i] = float64(p.level(j.Elapsed))
	}
	return &p.rank
}

// demotion returns the review horizon: the first moment a running job
// crosses its level threshold and gets demoted, with a job at rate r
// gaining elapsed work at r·speed. It reads the levels order just wrote.
func (p *MLFQ) demotion(jobs []core.JobView, rates []float64, speed float64) float64 {
	horizon := math.Inf(1)
	for i := range jobs {
		if rates[i] <= 0 {
			continue
		}
		gap := p.levelEnd(int(p.rank.key[i])) - jobs[i].Elapsed
		if gap <= 1e-12 {
			continue
		}
		if h := gap / (rates[i] * speed); h < horizon {
			horizon = h
		}
	}
	if math.IsInf(horizon, 1) {
		return core.NoHorizon
	}
	return horizon
}
