package core

// JobView is the per-job state a policy sees when asked for rates.
//
// Non-clairvoyant policies (RR, SETF, FCFS, WRR, LAPS, MLFQ) must only read
// ID, Release, Age and Elapsed. Clairvoyant policies (SRPT, SJF) may also
// read Size and Remaining. This contract is enforced by property tests that
// perturb sizes and assert non-clairvoyant policies' outputs are unchanged
// (the paper stresses that RR is non-clairvoyant: it never needs p_j before
// completion).
type JobView struct {
	ID        int
	Release   float64
	Weight    float64 // effective weight (≥ 0; 1 when the job left it unset)
	Age       float64 // now − Release
	Elapsed   float64 // processing received so far (true work units)
	Size      float64 // p_j (clairvoyant)
	Remaining float64 // Size − Elapsed (clairvoyant)
}

// NoHorizon indicates the returned rates stay valid until the next arrival
// or completion.
const NoHorizon = 0

// Policy decides instantaneous machine shares for alive jobs.
//
// Rates fills rates[i] for jobs[i] on the machines env describes; jobs and
// rates have equal length and rates arrives zeroed. On identical unit
// machines (env.Identical(), the paper's model) rates[i] ∈ [0,1] is job
// i's machine share with Σ rates ≤ env.M. On uniform machines rates[i] is
// job i's pre-augmentation work rate, at most env.MaxSpeed(), with every
// sorted-descending prefix sum of the rates bounded by the matching
// prefix sum of the machine speeds. The engine checks the vector against
// the model's rule after every call. env.Speed is the engine's
// resource-augmentation factor (work accrues at rate·speed), which
// policies need only to convert internal work-based deadlines into the
// wall-clock horizon they return. The env helpers (FairShare, RankSpeed,
// ProfileIntegral, …) return the paper's expressions on identical
// machines, so one rule serves both models.
//
// The returned horizon, if positive, is the maximum wall-clock duration for
// which these rates may be used before the policy must be consulted again
// even absent arrivals/completions — policies whose rates change at internal
// moments (SETF catch-ups, WRR quanta, MLFQ demotions) use it. Return
// NoHorizon when rates remain valid until the next arrival or completion.
//
// The jobs slice is ordered by (Release, ID) and views are recomputed at
// every invocation; policies must not retain the slices or env.
type Policy interface {
	Name() string
	Clairvoyant() bool
	Rates(now float64, jobs []JobView, env *MachineEnv, rates []float64) (horizon float64)
}

// Resetter is implemented by stateful policies (e.g. MLFQ) that must be
// reset between runs. The engine calls Reset at the start of every Run.
type Resetter interface {
	Reset()
}
