package core

// Observer receives a simulation's event stream as it is produced, so
// consumers (ℓk-norm accumulation, time-average statistics, dual-fitting
// witnesses, tracing) reduce the schedule in a single pass with O(alive
// jobs) state — the memory bound that makes n=10⁶ sweeps feasible. The one
// observer that keeps the whole rate timeline is SegmentRecorder, whose
// Segments the timeline readers (ValidateResult, RenderGantt, ...) take.
//
// Both engines emit the callbacks at the same points of the schedule
// (DESIGN.md §13 specifies the contract precisely):
//
//   - ObserveArrival fires once per job, in normalized (Release, ID)
//     order, at the instant the job is admitted — t equals the job's
//     release time, up to the engine's minimum-advance guard; the Job
//     value carries the exact release. Degenerate (sub-tolerance size)
//     jobs fire ObserveArrival immediately followed by
//     ObserveCompletion at the same t.
//   - ObserveEpoch fires for every maximal interval [Start, End) over
//     which the engine's alive set and rates are constant, in
//     chronological order; epochs never overlap, cover exactly the busy
//     time, and follow the arrivals at their start time. Only the
//     reference engine emits zero-length (End == Start) epochs, and only
//     where float64 cannot advance its clock: a step below half an ulp
//     of the current time, so now + dt == now (sub-resolution job sizes
//     at releases near 1e16, say); the fast paths never do. An
//     epoch-blind run — every attached observer a CoarseEpochObserver
//     answering true — may receive no epochs at all: the fast engine
//     makes no ObserveEpoch calls there.
//   - ObserveCompletion fires once per job at its completion time, after
//     the epoch that completed it.
//   - ObserveDone fires exactly once, after the final completion, with
//     the finished Result — only on success; a run that returns an error
//     emits no ObserveDone.
//
// At a single coincident instant the relative order of arrivals and
// completions is engine-specific (the reference engine delivers the
// completions that close a step before the arrivals that open the next;
// the fast paths may interleave them) — observers must not depend on it.
// Time-integral and per-job quantities are unaffected.
//
// Ownership: every slice reaching an observer through a callback —
// Epoch.Jobs, Epoch.Rates, and the slices inside ObserveDone's Result —
// is engine-owned and reused after the callback returns. Observers must
// copy what they keep and must not retain the slices themselves
// (copy-or-drop; the rrlint obsretain check enforces it mechanically).
//
// Reentrancy: callbacks run synchronously on the engine's goroutine and
// must not call back into the engine (Run/RunWS on the same workspace) or
// block; an observer that needs concurrency should hand events to its own
// channel/goroutine by value.
type Observer interface {
	// ObserveArrival reports job (a normalized index into Result.Jobs)
	// being admitted at time t; j is the job's normalized value, so
	// observers can learn releases, sizes and weights online.
	ObserveArrival(t float64, job int, j Job)
	// ObserveEpoch reports one rate-constant interval. e and its slices
	// are engine-owned: copy-or-drop, never retain.
	ObserveEpoch(e *Epoch)
	// ObserveCompletion reports job completing at time t with flow time
	// flow = t − release.
	ObserveCompletion(t float64, job int, flow float64)
	// ObserveDone reports the finished run. res is owned by the engine's
	// workspace when one was supplied: consume it before returning.
	ObserveDone(res *Result)
}

// Epoch is one rate-constant interval of a running simulation — the
// streaming counterpart of Segment. Alive and RateSum are always valid;
// Jobs and Rates carry the per-job breakdown only when the producing
// engine tracks it (the reference engine always does, the fast paths
// never do — observers that need them must implement NeedsJobEpochs,
// which routes dispatch to the reference engine).
type Epoch struct {
	// Start and End bound the interval. End ≥ Start; End == Start occurs
	// only in the reference engine at magnitudes where float64 cannot
	// advance time — the fast paths never emit zero-length epochs.
	Start, End float64
	// Alive is n_t, the number of alive jobs throughout the interval.
	Alive int
	// RateSum is Σ_j rate_j (pre-speed machine shares), so
	// RateSum·(End−Start) is the machine-time consumed in the interval.
	RateSum float64
	// Jobs holds normalized job indices in (Release, ID) order and Rates
	// the matching pre-speed shares — nil when the engine only tracks
	// aggregates. Engine-owned: copy-or-drop.
	Jobs  []int
	Rates []float64
}

// Duration returns End − Start.
func (e *Epoch) Duration() float64 { return e.End - e.Start }

// Overloaded reports whether the epoch is an overloaded time in the
// paper's sense (t ∈ T_o ⟺ n_t ≥ m).
func (e *Epoch) Overloaded(m int) bool { return e.Alive >= m }

// JobEpochObserver is implemented by observers that need the per-job
// Jobs/Rates breakdown in every epoch (dual witnesses, SegmentRecorder).
// Only the reference engine produces it, so a dispatching front-end
// (fast.RunWS) falls back to the reference engine when
// NeedsJobEpochs() is true.
type JobEpochObserver interface {
	Observer
	NeedsJobEpochs() bool
}

// ObserverNeedsJobEpochs reports whether o demands per-job epochs: it
// implements JobEpochObserver and answers true. A nil observer needs
// nothing.
func ObserverNeedsJobEpochs(o Observer) bool {
	if o == nil {
		return false
	}
	if j, ok := o.(JobEpochObserver); ok {
		return j.NeedsJobEpochs()
	}
	return false
}

// CoarseEpochObserver is implemented by epoch-blind observers: ones that
// read no epochs — StreamNorm, for example, reduces completions only. When
// every observer attached to a run answers true, the fast engine makes no
// ObserveEpoch calls at all, which removes the per-event observer dispatch
// from its drains; arrivals, completions and ObserveDone are delivered as
// usual. The reference engine still delivers epochs, which such an
// observer ignores. Observers that reduce epochs (Timeline, Witness, the
// trace writer) do not implement the interface and receive the exact
// stream.
type CoarseEpochObserver interface {
	Observer
	// CoarseEpochsOK reports that the observer reads no epochs, so engines
	// may skip its ObserveEpoch calls.
	CoarseEpochsOK() bool
}

// ObserverCoarseEpochsOK reports whether o is epoch-blind: it is nil
// (nothing to deliver to) or implements CoarseEpochObserver and answers
// true.
func ObserverCoarseEpochsOK(o Observer) bool {
	if o == nil {
		return true
	}
	if c, ok := o.(CoarseEpochObserver); ok {
		return c.CoarseEpochsOK()
	}
	return false
}

// MultiObserver fans one event stream out to several observers, in slice
// order. It needs per-job epochs iff any member does.
type MultiObserver []Observer

// Multi combines observers into one, eliding the wrapper when it can:
// nil for no (non-nil) observers, the observer itself for exactly one.
func Multi(obs ...Observer) Observer {
	kept := make(MultiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// ObserveArrival implements Observer.
func (m MultiObserver) ObserveArrival(t float64, job int, j Job) {
	for _, o := range m {
		o.ObserveArrival(t, job, j)
	}
}

// ObserveEpoch implements Observer.
func (m MultiObserver) ObserveEpoch(e *Epoch) {
	for _, o := range m {
		o.ObserveEpoch(e)
	}
}

// ObserveCompletion implements Observer.
func (m MultiObserver) ObserveCompletion(t float64, job int, flow float64) {
	for _, o := range m {
		o.ObserveCompletion(t, job, flow)
	}
}

// ObserveDone implements Observer.
func (m MultiObserver) ObserveDone(res *Result) {
	for _, o := range m {
		o.ObserveDone(res)
	}
}

// NeedsJobEpochs implements JobEpochObserver.
func (m MultiObserver) NeedsJobEpochs() bool {
	for _, o := range m {
		if ObserverNeedsJobEpochs(o) {
			return true
		}
	}
	return false
}

// CoarseEpochsOK implements CoarseEpochObserver: a fan-out is epoch-blind
// only when every member is, so one member that reads epochs gets the
// exact stream for all of them.
func (m MultiObserver) CoarseEpochsOK() bool {
	for _, o := range m {
		if !ObserverCoarseEpochsOK(o) {
			return false
		}
	}
	return true
}

// SegmentRecorder records a run's rate timeline: it materializes the epoch
// stream into Segments, deep-copying every epoch, for the readers that
// walk a whole schedule after the run (ValidateResult, AssignMachines,
// FractionalFlows, FractionalAgeMoment, RenderGantt, ComputeTimeStats,
// dual.Build). It needs per-job epochs, so dispatchers run it on the
// reference engine. Attach it through Options.Observer (Multi combines it
// with others); a reused recorder appends, so reset Segments between runs.
type SegmentRecorder struct {
	Segments []Segment
}

// ObserveArrival implements Observer.
func (r *SegmentRecorder) ObserveArrival(t float64, job int, j Job) {}

// ObserveEpoch implements Observer. The epoch's slices are copied.
func (r *SegmentRecorder) ObserveEpoch(e *Epoch) {
	r.Segments = append(r.Segments, Segment{
		Start: e.Start,
		End:   e.End,
		Jobs:  append([]int(nil), e.Jobs...),
		Rates: append([]float64(nil), e.Rates...),
	})
}

// ObserveCompletion implements Observer.
func (r *SegmentRecorder) ObserveCompletion(t float64, job int, flow float64) {}

// ObserveDone implements Observer.
func (r *SegmentRecorder) ObserveDone(res *Result) {}

// NeedsJobEpochs implements JobEpochObserver: a segment timeline is the
// per-job breakdown.
func (r *SegmentRecorder) NeedsJobEpochs() bool { return true }
