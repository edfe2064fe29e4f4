package policy

import "rrnorm/internal/core"

// SRPT is Shortest Remaining Processing Time: the m alive jobs with the
// least remaining work each receive a full machine. It is clairvoyant,
// optimal for total (ℓ1) flow time on a single machine, and scalable
// ((1+ε)-speed O(1)-competitive) for ℓk-norms on identical machines
// (Bansal–Pruhs; Fox–Moseley — the paper's Related Work). Ties are broken
// by earlier release, then smaller ID, for determinism.
type SRPT struct{ rank byKey }

// NewSRPT returns a new SRPT policy.
func NewSRPT() *SRPT { return &SRPT{} }

// Name implements core.Policy.
func (*SRPT) Name() string { return "SRPT" }

// Clairvoyant implements core.Policy.
func (*SRPT) Clairvoyant() bool { return true }

// order ranks jobs by remaining work, breaking ties by release then ID.
func (p *SRPT) order(jobs []core.JobView) *byKey {
	key := p.rank.keys(jobs)
	for i, j := range jobs {
		key[i] = j.Remaining
	}
	return &p.rank
}

// Rates implements core.Policy: the k-th shortest job runs on the k-th
// fastest machine.
func (p *SRPT) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.order(jobs).topM(env, rates)
	return core.NoHorizon
}

// SJF is (preemptive) Shortest Job First: the m alive jobs with the least
// original size each receive a full machine. Clairvoyant; one of the
// policies shown O(1)-speed O(1)-competitive for ℓ2-norm flow by
// Bansal–Pruhs, cited throughout the paper.
type SJF struct{ rank byKey }

// NewSJF returns a new SJF policy.
func NewSJF() *SJF { return &SJF{} }

// Name implements core.Policy.
func (*SJF) Name() string { return "SJF" }

// Clairvoyant implements core.Policy.
func (*SJF) Clairvoyant() bool { return true }

// order ranks jobs by original size, breaking ties by release then ID.
func (p *SJF) order(jobs []core.JobView) *byKey {
	key := p.rank.keys(jobs)
	for i, j := range jobs {
		key[i] = j.Size
	}
	return &p.rank
}

// Rates implements core.Policy.
func (p *SJF) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.order(jobs).topM(env, rates)
	return core.NoHorizon
}

// FCFS is First Come First Served: the m earliest-released alive jobs each
// receive a full machine. Non-clairvoyant and non-preemptive in effect on a
// single machine; included as the classic no-fairness-no-preemption
// baseline.
type FCFS struct{ rank byKey }

// NewFCFS returns a new FCFS policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements core.Policy.
func (*FCFS) Name() string { return "FCFS" }

// Clairvoyant implements core.Policy.
func (*FCFS) Clairvoyant() bool { return false }

// order ranks jobs by release then ID: every key is 0, so byKey's
// (Release, ID) tie-break decides.
func (p *FCFS) order(jobs []core.JobView) *byKey {
	clear(p.rank.keys(jobs))
	return &p.rank
}

// Rates implements core.Policy: the k-th oldest job runs on the k-th
// fastest machine. jobs arrive ordered by (Release, ID) already; the
// explicit ranking keeps FCFS robust against future engine changes.
func (p *FCFS) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.order(jobs).topM(env, rates)
	return core.NoHorizon
}
