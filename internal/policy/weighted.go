package policy

import "rrnorm/internal/core"

// WSRPT is weighted SRPT: the m alive jobs with the smallest
// remaining-work-to-weight ratio each get a full machine — the natural
// clairvoyant heuristic for weighted flow objectives (the setting of the
// Anand–Garg–Kumar dual-fitting work the paper builds on).
type WSRPT struct{ rank byKey }

// NewWSRPT returns a weighted SRPT policy.
func NewWSRPT() *WSRPT { return &WSRPT{} }

// Name implements core.Policy.
func (*WSRPT) Name() string { return "WSRPT" }

// Clairvoyant implements core.Policy.
func (*WSRPT) Clairvoyant() bool { return true }

// order ranks jobs by remaining-work-to-weight ratio, then release, then
// ID.
func (p *WSRPT) order(jobs []core.JobView) *byKey {
	key := p.rank.keys(jobs)
	for i, j := range jobs {
		key[i] = j.Remaining / weightOf(j)
	}
	return &p.rank
}

// Rates implements core.Policy.
func (p *WSRPT) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.order(jobs).topM(env, rates)
	return core.NoHorizon
}

// WSJF is weighted SJF (highest-density first): the m alive jobs with the
// smallest size-to-weight ratio each get a full machine.
type WSJF struct{ rank byKey }

// NewWSJF returns a weighted SJF policy.
func NewWSJF() *WSJF { return &WSJF{} }

// Name implements core.Policy.
func (*WSJF) Name() string { return "WSJF" }

// Clairvoyant implements core.Policy.
func (*WSJF) Clairvoyant() bool { return true }

// order ranks jobs by size-to-weight ratio, then release, then ID.
func (p *WSJF) order(jobs []core.JobView) *byKey {
	key := p.rank.keys(jobs)
	for i, j := range jobs {
		key[i] = j.Size / weightOf(j)
	}
	return &p.rank
}

// Rates implements core.Policy.
func (p *WSJF) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.order(jobs).topM(env, rates)
	return core.NoHorizon
}

// PropShare is weight-proportional sharing — Round Robin generalized to
// static weights (each alive job gets machine share ∝ w_j, capped at one
// machine). With unit weights it coincides with RR; it is the
// non-clairvoyant fair-share policy of stride/lottery schedulers. Weights
// are static, so rates change only at arrivals/completions.
type PropShare struct{ buf shareBuf }

// NewPropShare returns a weight-proportional-sharing policy.
func NewPropShare() *PropShare { return &PropShare{} }

// Name implements core.Policy.
func (*PropShare) Name() string { return "PROP" }

// Clairvoyant implements core.Policy.
func (*PropShare) Clairvoyant() bool { return false }

// Rates implements core.Policy (see shareBuf.fill for both models).
func (p *PropShare) Rates(now float64, jobs []core.JobView, env *core.MachineEnv, rates []float64) float64 {
	p.buf.fill(p.weights(jobs), env, rates)
	return core.NoHorizon
}

// weights fills the policy's weight column from the jobs' static weights.
func (p *PropShare) weights(jobs []core.JobView) []float64 {
	w := p.buf.column(len(jobs))
	for i, j := range jobs {
		w[i] = weightOf(j)
	}
	return w
}

// weightOf returns the view's effective weight, defaulting to 1 — robust
// against callers constructing JobViews directly with zero weights.
func weightOf(j core.JobView) float64 {
	if j.Weight == 0 {
		return 1
	}
	return j.Weight
}
