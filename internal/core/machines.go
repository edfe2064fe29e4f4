package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Machines is the first-class machine model: per-machine speeds and a
// preemption cost, generalizing the paper's setting of m identical
// unit-speed machines with free preemption.
//
// The zero value — nil Speeds, zero PreemptCost — is the paper's model and
// is bit-identical to the historical behavior: every engine expression on
// the default path is unchanged, so results, goldens and cache keys are
// byte-for-byte what they were before the model existed.
//
// Non-empty Speeds selects the uniform (related) machine model of
// Bansal–Kulkarni: machine i runs at speed Speeds[i] > 0, a job runs on at
// most one machine at a time (so its work rate never exceeds the fastest
// speed), and fractional time-sharing makes any rate vector feasible whose
// sorted-descending prefix sums stay below the sorted-descending speed
// prefix sums. len(Speeds) must equal Options.Machines.
//
// PreemptCost > 0 charges context switches: each time an alive job's rate
// drops from positive to zero (it was running and was kicked off), its
// remaining work grows by PreemptCost. Processor-sharing policies such as
// RR never pay it (every alive job always holds a positive share), while
// priority policies (SRPT, FCFS on m < n) pay per displacement — the knob
// that makes RR-vs-SRPT trade-offs non-trivial.
type Machines struct {
	// Speeds are per-machine processing speeds; empty means Options.Machines
	// identical unit-speed machines (the paper's setting). Order is
	// irrelevant: engines and fingerprints canonicalize to descending.
	Speeds []float64
	// PreemptCost is extra work charged to a job each time it is preempted.
	// 0 means free preemption (the paper's setting).
	PreemptCost float64
}

// Heterogeneous reports whether an explicit speed vector is set. Note that
// an explicit all-ones vector counts as heterogeneous plumbing-wise (it
// takes the generalized code path and fingerprints differently) even
// though it describes the same physical machines.
func (mm *Machines) Heterogeneous() bool { return len(mm.Speeds) > 0 }

// Default reports whether the model is the paper's: identical unit-speed
// machines and free preemption. Default models are guaranteed bit-identical
// to the historical engine behavior.
func (mm *Machines) Default() bool { return len(mm.Speeds) == 0 && mm.PreemptCost == 0 }

// Validate checks the model against the run's machine count m: speeds
// positive and finite with len(Speeds) == m when set, PreemptCost
// non-negative and finite. Errors wrap ErrBadOptions.
func (mm *Machines) Validate(m int) error {
	if len(mm.Speeds) > 0 && len(mm.Speeds) != m {
		return fmt.Errorf("%w: %d machine speeds for Machines=%d", ErrBadOptions, len(mm.Speeds), m)
	}
	for i, s := range mm.Speeds {
		if !(s > 0) || math.IsInf(s, 0) {
			return fmt.Errorf("%w: machine speed[%d]=%v (want positive finite)", ErrBadOptions, i, s)
		}
	}
	if pc := mm.PreemptCost; !(pc >= 0) || math.IsInf(pc, 0) {
		return fmt.Errorf("%w: PreemptCost=%v (want non-negative finite)", ErrBadOptions, pc)
	}
	return nil
}

// CanonSpeeds returns the canonical (descending) copy of the speed vector,
// or nil for the default model. Fingerprints hash this form so two
// requests differing only in machine order share a cache entry.
func (mm *Machines) CanonSpeeds() []float64 {
	if len(mm.Speeds) == 0 {
		return nil
	}
	out := append([]float64(nil), mm.Speeds...)
	slices.SortFunc(out, func(a, b float64) int { return cmp.Compare(b, a) })
	return out
}

// Clone returns a deep copy of the model.
func (mm *Machines) Clone() Machines {
	return Machines{Speeds: append([]float64(nil), mm.Speeds...), PreemptCost: mm.PreemptCost}
}

// MachineEnv is the per-run view of the machine model that Policy.Rates
// and the engines consult: machine count, augmentation speed, preemption
// cost, and — for heterogeneous models — the speeds sorted descending with
// their prefix sums. Engines build one per run on reusable
// workspace buffers (BuildMachineEnv), so the heterogeneous hot path stays
// allocation-free.
type MachineEnv struct {
	// M is the machine count (Options.Machines) and Speed the
	// resource-augmentation factor (Options.Speed).
	M     int
	Speed float64
	// PreemptCost mirrors Machines.PreemptCost.
	PreemptCost float64

	sorted []float64 // speeds descending; nil ⇔ identical unit machines
	prefix []float64 // prefix[k] = Σ sorted[:k]; len M+1 when sorted != nil
}

// BuildMachineEnv fills e from the options, reusing e's buffers. The speeds
// are copied and sorted descending; prefix sums accumulate in that fixed
// order, so equal models always produce bit-equal shares.
func BuildMachineEnv(opts *Options, e *MachineEnv) {
	e.M = opts.Machines
	e.Speed = opts.Speed
	e.PreemptCost = opts.MachineModel.PreemptCost
	sp := opts.MachineModel.Speeds
	if len(sp) == 0 {
		e.sorted = nil
		e.prefix = e.prefix[:0]
		return
	}
	e.sorted = append(e.sorted[:0], sp...)
	slices.SortFunc(e.sorted, func(a, b float64) int { return cmp.Compare(b, a) })
	e.prefix = e.prefix[:0]
	if cap(e.prefix) < len(sp)+1 {
		e.prefix = make([]float64, 0, len(sp)+1)
	}
	acc := 0.0
	e.prefix = append(e.prefix, 0)
	for _, s := range e.sorted {
		acc += s
		e.prefix = append(e.prefix, acc)
	}
}

// Identical reports whether the env describes identical unit machines.
func (e *MachineEnv) Identical() bool { return e.sorted == nil }

// SortedSpeeds returns the descending speed vector (nil for identical unit
// machines). Callers must not modify it.
func (e *MachineEnv) SortedSpeeds() []float64 { return e.sorted }

// TotalSpeed returns Σ speeds — the aggregate capacity per unit time
// (pre-augmentation). float64(M) for identical unit machines.
func (e *MachineEnv) TotalSpeed() float64 {
	if e.sorted == nil {
		return float64(e.M)
	}
	return e.prefix[e.M]
}

// MaxSpeed returns the fastest single machine's speed — the cap on any one
// job's rate (a job runs on at most one machine at a time).
func (e *MachineEnv) MaxSpeed() float64 {
	if e.sorted == nil {
		return 1
	}
	return e.sorted[0]
}

// PrefixSpeed returns the total speed of the k fastest machines (clamped to
// [0, M]): the right-hand side of the k-th feasibility constraint.
func (e *MachineEnv) PrefixSpeed(k int) float64 {
	if k < 0 {
		k = 0
	}
	if k > e.M {
		k = e.M
	}
	if e.sorted == nil {
		return float64(k)
	}
	return e.prefix[k]
}

// RankSpeed returns the speed of the r-th fastest machine (0-indexed), 0
// past the machine count. Rank-based policies (SRPT, SJF, FCFS, …) assign
// their r-th priority job this rate: the k-th shortest job runs on the
// k-th fastest machine, the uniform-machine generalization of "the top m
// jobs each get a full machine".
func (e *MachineEnv) RankSpeed(r int) float64 {
	if r < 0 || r >= e.M {
		return 0
	}
	if e.sorted == nil {
		return 1
	}
	return e.sorted[r]
}

// FairShare returns Round Robin's per-job rate with `alive` jobs: the
// largest equal rate feasible on the machine profile. On identical unit
// machines that is min(1, m/alive) (the paper's Section 2); on uniform
// machines equal-rate feasibility water-fills the sorted-speed prefix
// sums — each job can use at most the fastest machine, any k jobs jointly
// at most the k fastest — giving prefix[min(alive, m)] / alive: for
// alive ≤ m the jobs time-share the alive fastest machines equally, beyond
// that they split the full capacity Σ speeds.
func (e *MachineEnv) FairShare(alive int) float64 {
	if alive <= 0 {
		return 0
	}
	if e.sorted == nil {
		return math.Min(1, float64(e.M)/float64(alive))
	}
	k := alive
	if k > e.M {
		k = e.M
	}
	return e.prefix[k] / float64(alive)
}

// RRSum returns the pre-augmentation total rate of Round Robin with
// `alive` jobs — what the engines report as an epoch's RateSum. Identical
// machines keep the historical float64(min(alive, m)) expression exactly.
func (e *MachineEnv) RRSum(alive int) float64 {
	if alive <= 0 {
		return 0
	}
	if e.sorted == nil {
		if alive > e.M {
			return float64(e.M)
		}
		return float64(alive)
	}
	return float64(alive) * e.FairShare(alive)
}

// ProfileIntegral returns the integral of the speed profile over machine
// interval [0, x): the capacity of the x fastest "fractional machines".
// Linear interpolation between integer ranks; x is clamped to [0, M].
// Tier-filling policies (SETF, MLFQ boundary groups) use it to split a
// partial machine's capacity across a tied group.
func (e *MachineEnv) ProfileIntegral(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= float64(e.M) {
		return e.TotalSpeed()
	}
	if e.sorted == nil {
		return x
	}
	k := int(x)
	return e.prefix[k] + (x-float64(k))*e.sorted[k]
}

// checkRatesUniform validates a heterogeneous-model rate vector: each rate
// in [0, maxSpeed], sorted-descending prefix sums within the speed prefix
// sums. scratch is the reusable sort buffer (the engine's workspace owns
// it). Sub-tolerance violations are clamped exactly like checkRates.
func checkRatesUniform(rates []float64, env *MachineEnv, scratch *[]float64) error {
	maxS := env.MaxSpeed()
	buf := *scratch
	buf = buf[:0]
	for i := range rates {
		r := rates[i]
		if math.IsNaN(r) || r < -rateTol || r > maxS+rateTol {
			return fmt.Errorf("rate[%d]=%v out of [0,%v]", i, r, maxS)
		}
		if r < 0 {
			rates[i] = 0
			r = 0
		}
		if r > maxS {
			rates[i] = maxS
			r = maxS
		}
		buf = append(buf, r)
	}
	slices.SortFunc(buf, func(a, b float64) int { return cmp.Compare(b, a) })
	*scratch = buf
	sum := 0.0
	for k, r := range buf {
		sum += r
		if k >= env.M {
			break // remaining constraints are all dominated by the k=M one below
		}
		if cap := env.PrefixSpeed(k + 1); sum > cap+rateTol*float64(k+2) {
			return fmt.Errorf("top-%d rate sum %v exceeds the %d fastest machines' capacity %v", k+1, sum, k+1, cap)
		}
	}
	total := 0.0
	for _, r := range buf {
		total += r
	}
	if cap := env.TotalSpeed(); total > cap+rateTol*float64(len(buf)+1) {
		return fmt.Errorf("rate sum %v exceeds total capacity %v", total, cap)
	}
	return nil
}
