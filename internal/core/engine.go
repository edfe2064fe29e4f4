package core

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// EngineKind selects which engine implementation executes a simulation.
// The zero value is EngineAuto. Run itself always executes the reference
// engine and ignores the field; dispatching front-ends (internal/fast.Run,
// the rrnorm facade, internal/exp and the CLIs) honor it.
type EngineKind int

const (
	// EngineAuto uses the event-driven fast engine (internal/fast) when the
	// policy has a fast path and the options allow it (no segment
	// recording), falling back to the reference engine otherwise.
	EngineAuto EngineKind = iota
	// EngineReference forces the step-by-step reference engine (Run).
	EngineReference
	// EngineFast requires the fast path; dispatchers fail when the
	// policy/options combination does not have one. Intended for tests and
	// benchmarks that must not silently fall back.
	EngineFast
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineAuto:
		return "auto"
	case EngineReference:
		return "reference"
	case EngineFast:
		return "fast"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// ParseEngineKind parses "auto", "reference" or "fast" (as accepted by the
// CLIs' -engine flag).
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "reference", "ref":
		return EngineReference, nil
	case "fast":
		return EngineFast, nil
	}
	return 0, fmt.Errorf("%w: unknown engine %q (want auto, reference or fast)", ErrBadOptions, s)
}

// Options configures a simulation run.
type Options struct {
	// Machines is m ≥ 1, the number of identical machines.
	Machines int
	// Speed is the resource-augmentation factor s > 0 applied to the
	// policy's machines: a job with rate ρ accrues work at ρ·s per unit
	// time. The optimal/lower-bound side always runs at speed 1.
	Speed float64
	// MachineModel generalizes the machine setting: per-machine speeds
	// (uniform/related machines) and a preemption cost. The zero value is
	// the paper's model — Machines identical unit-speed machines, free
	// preemption — and is bit-identical to the pre-model behavior. With
	// explicit speeds the policy must implement MachineAware; rates become
	// work rates bounded by the sorted-speed prefix sums instead of [0,1]
	// machine shares. See Machines.
	MachineModel Machines
	// RecordSegments enables the full piecewise-constant rate timeline,
	// needed by the dual-fitting certificate and schedule validation.
	RecordSegments bool
	// MaxEvents bounds the number of engine steps; 0 means a generous
	// default derived from the instance size.
	MaxEvents int
	// Engine selects the engine implementation for dispatching front-ends
	// (internal/fast.Run, rrnorm.Simulate). Run ignores it — it is the
	// reference engine.
	Engine EngineKind
	// Context, when non-nil, is polled by both engines every few events; a
	// run aborts with an error wrapping Context.Err() once it is canceled.
	// The serving layer (internal/serve) uses it to enforce per-request
	// deadlines, so a deadline set here bounds simulation wall time even
	// for adversarially large instances. Nil means never canceled.
	Context context.Context
	// Observer, when non-nil, receives the run's event stream (arrivals,
	// rate-constant epochs, completions, end-of-run) as it is produced —
	// the single-pass alternative to post-processing Result.Segments. Both
	// engines emit it; fast paths deliver aggregate-only epochs, and an
	// observer whose ObserverNeedsJobEpochs answers true routes dispatch to
	// the reference engine (like RecordSegments). Use Multi to attach
	// several. See Observer for the callback contract.
	Observer Observer
}

// DefaultOptions returns single-machine, speed-1 options with segment
// recording enabled.
func DefaultOptions() Options {
	return Options{Machines: 1, Speed: 1, RecordSegments: true}
}

// Segment is a maximal interval [Start, End) during which the alive-job set
// and all rates are constant. Jobs holds instance indices (positions in
// Instance.Jobs) ordered by (Release, ID); Rates holds the policy's machine
// shares (pre-speed) aligned with Jobs.
type Segment struct {
	Start, End float64
	Jobs       []int
	Rates      []float64
}

// Duration returns End − Start.
func (s *Segment) Duration() float64 { return s.End - s.Start }

// Result is the outcome of simulating a policy on an instance.
type Result struct {
	Policy   string
	Machines int
	Speed    float64
	// MachineModel echoes Options.MachineModel (zero value for the default
	// identical-unit-machine setting). Validation and observers use it to
	// apply the generalized capacity and flow bounds.
	MachineModel Machines
	// Jobs is the normalized (sorted by Release, ID) copy of the instance
	// that was simulated. Completion, Flow and Segment.Jobs are all indexed
	// against this slice.
	Jobs []Job
	// Completion and Flow are indexed by position in Jobs.
	Completion []float64
	Flow       []float64
	// Segments is the rate timeline (only when Options.RecordSegments).
	Segments []Segment
	// Events counts engine steps (arrivals, completions, policy reviews).
	Events int
}

// MaxFlow returns the maximum flow time.
func (r *Result) MaxFlow() float64 {
	var mx float64
	for _, f := range r.Flow {
		if f > mx {
			mx = f
		}
	}
	return mx
}

// Makespan returns the latest completion time.
func (r *Result) Makespan() float64 {
	var mx float64
	for _, c := range r.Completion {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// Simulation errors.
var (
	ErrBadOptions   = errors.New("core: invalid options")
	ErrCanceled     = errors.New("core: simulation canceled")
	ErrBadRates     = errors.New("core: policy returned infeasible rates")
	ErrStarvation   = errors.New("core: policy starves alive jobs with no future event")
	ErrEventOverrun = errors.New("core: event budget exhausted (runaway policy horizon?)")
)

const (
	// rateTol is the tolerance for validating policy rates.
	rateTol = 1e-9
	// minAdvance guards against zero-length steps looping forever.
	minAdvance = 1e-15
	// ctxStride is how many events pass between Options.Context polls: a
	// power of two so the check compiles to a mask, coarse enough that the
	// hot loops pay ~nothing, fine enough that cancellation latency stays
	// well under a millisecond of simulation work.
	ctxStride = 64
)

// Canceled returns a wrapped cancellation error when ctx is non-nil and
// done, nil otherwise. Both engines poll it every ctxStride events; the
// returned error matches errors.Is against ErrCanceled and against the
// underlying context error (context.Canceled / context.DeadlineExceeded),
// which the serving layer maps to HTTP 504.
func Canceled(ctx context.Context, now float64, events int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w at t=%v after %d events: %w", ErrCanceled, now, events, err)
	}
	return nil
}

// Run simulates policy on inst and returns the resulting schedule.
// The instance is validated and normalized (sorted) as a side effect of
// copying; the caller's instance is not modified.
func Run(inst *Instance, policy Policy, opts Options) (*Result, error) {
	return RunWS(inst, policy, opts, nil)
}

// RunWS is Run with an optional reusable workspace. With a non-nil ws the
// run performs zero steady-state heap allocations — every buffer, and the
// returned Result itself, comes from ws — at the price of the ownership
// rule documented on Workspace: the result is workspace-owned and must be
// consumed or Cloned before ws's next run or release. ws == nil behaves
// exactly like Run: a private workspace is allocated and the caller owns
// the result. Outputs are byte-identical either way.
//
// Internally a materialized run is a streaming run over the normalized job
// slice: RunWS and RunStream share one event loop (runReference), differing
// only in how arrivals are pulled and completions recorded — which is what
// makes the two paths byte-identical by construction.
func RunWS(inst *Instance, policy Policy, opts Options, ws *Workspace) (*Result, error) {
	if opts.Machines < 1 {
		return nil, fmt.Errorf("%w: Machines=%d", ErrBadOptions, opts.Machines)
	}
	if !(opts.Speed > 0) || math.IsInf(opts.Speed, 0) {
		return nil, fmt.Errorf("%w: Speed=%v", ErrBadOptions, opts.Speed)
	}
	if err := ValidateMachineOptions(policy, opts); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	res, err := ws.StartRun(inst, policy.Name(), opts)
	if err != nil {
		return nil, err
	}
	if r, ok := policy.(Resetter); ok {
		r.Reset()
	}
	obs := opts.Observer
	if len(res.Jobs) == 0 {
		if obs != nil {
			obs.ObserveDone(res)
		}
		return res, nil
	}
	cur := CursorOver(res.Jobs)
	if err := runReference(&cur, policy, opts, ws, res, nil); err != nil {
		return nil, err
	}
	if obs != nil {
		obs.ObserveDone(res)
	}
	return res, nil
}

// RunStream simulates policy over a JobSource without materializing it: the
// engine holds only the alive set plus a one-job lookahead, per-job outputs
// flow through opts.Observer, and the aggregate outcome comes back as a
// StreamResult. RecordSegments is rejected (a full rate timeline is a
// materialization); observers needing per-job epochs are fine — this is the
// reference engine. ws follows the same reuse rules as RunWS; ws == nil
// allocates a private workspace.
func RunStream(src JobSource, policy Policy, opts Options, ws *Workspace) (StreamResult, error) {
	if opts.Machines < 1 {
		return StreamResult{}, fmt.Errorf("%w: Machines=%d", ErrBadOptions, opts.Machines)
	}
	if !(opts.Speed > 0) || math.IsInf(opts.Speed, 0) {
		return StreamResult{}, fmt.Errorf("%w: Speed=%v", ErrBadOptions, opts.Speed)
	}
	if err := ValidateMachineOptions(policy, opts); err != nil {
		return StreamResult{}, err
	}
	if opts.RecordSegments {
		return StreamResult{}, fmt.Errorf("%w: RecordSegments requires a materialized run (core.Run)", ErrBadOptions)
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	if r, ok := policy.(Resetter); ok {
		r.Reset()
	}
	sum := StreamResult{Policy: policy.Name(), Machines: opts.Machines, Speed: opts.Speed, MachineModel: opts.MachineModel}
	cur := CursorFrom(src)
	if err := runReference(&cur, policy, opts, ws, nil, &sum); err != nil {
		return StreamResult{}, err
	}
	sum.N = cur.Pulled()
	ws.ObserveStreamDone(opts.Observer, &sum)
	return sum, nil
}

// runReference is the reference engine's event loop, shared between the
// materialized (res != nil) and streaming (sum != nil) modes — exactly one
// sink is active. The alive set is compacted per-alive state (sequence
// number, job value, elapsed work) rather than full-instance arrays, so
// memory is O(peak alive), and the arithmetic, event counting, observer
// emission and error semantics are identical in both modes.
func runReference(cur *Cursor, policy Policy, opts Options, ws *Workspace, res *Result, sum *StreamResult) error {
	if !cur.More() {
		return cur.Err()
	}
	obs := opts.Observer
	// The event budget: fixed upfront when the job count is known
	// (materialized runs, Sized sources — the historical semantics),
	// growing with the pull count for unbounded streams.
	fixedBudget := opts.MaxEvents
	if fixedBudget == 0 && cur.Sized() >= 0 {
		fixedBudget = 1_000_000 + 4000*cur.Sized()
	}

	st := &ws.ref
	st.aliveSeq = st.aliveSeq[:0]
	st.aliveJob = st.aliveJob[:0]
	st.aliveEl = st.aliveEl[:0]
	st.alivePrev = st.alivePrev[:0]
	BuildMachineEnv(&opts, &st.env)
	// hetero selects the generalized rate path; the default model keeps
	// every expression below verbatim (bit-identical results). ma is
	// non-nil whenever hetero — ValidateMachineOptions checked it.
	hetero := !st.env.Identical()
	ma, _ := policy.(MachineAware)
	pc := opts.MachineModel.PreemptCost
	var (
		events = 0
		now    = cur.Head().Release
	)

	for len(st.aliveSeq) > 0 || cur.More() {
		if err := cur.Err(); err != nil {
			return err
		}
		budget := fixedBudget
		if budget == 0 {
			budget = 1_000_000 + 4000*cur.Pulled()
		}
		if events >= budget {
			return fmt.Errorf("%w: %d events at t=%v (policy %s)", ErrEventOverrun, events, now, policy.Name())
		}
		if events&(ctxStride-1) == 0 {
			if err := Canceled(opts.Context, now, events); err != nil {
				return err
			}
		}
		events++

		// Admit all arrivals at the current time. The source is
		// release-ordered, and alive jobs always arrived no later than
		// pending ones, so appending preserves (Release, ID) order.
		// Degenerate jobs — zero size, or size below the completion
		// tolerance — complete the instant they are admitted: letting them
		// join the alive set would hand them a rate share until the next
		// event boundary, skewing every other job's schedule and making
		// their completion time depend on unrelated event spacing (the
		// completionTol/minAdvance edge case the fast engine must agree
		// with).
		for cur.More() && cur.Head().Release <= now {
			j, seq := cur.Advance()
			if obs != nil {
				obs.ObserveArrival(now, seq, j)
			}
			if j.Size <= CompletionTol(j.Size) {
				recordCompletion(res, sum, obs, seq, j.Release, now)
				continue
			}
			st.aliveSeq = append(st.aliveSeq, seq)
			st.aliveJob = append(st.aliveJob, j)
			st.aliveEl = append(st.aliveEl, 0)
			if pc > 0 {
				st.alivePrev = append(st.alivePrev, 0)
			}
		}
		if len(st.aliveSeq) == 0 {
			if !cur.More() {
				break // the last admitted jobs were degenerate; all done
			}
			now = cur.Head().Release
			continue
		}

		// Build views and query the policy.
		views := st.views[:0]
		for i, j := range st.aliveJob {
			views = append(views, JobView{
				ID:        j.ID,
				Release:   j.Release,
				Weight:    j.W(),
				Age:       now - j.Release,
				Elapsed:   st.aliveEl[i],
				Size:      j.Size,
				Remaining: j.Size - st.aliveEl[i],
			})
		}
		st.views = views[:0]
		rates := st.rates
		if cap(rates) < len(st.aliveSeq) {
			rates = make([]float64, len(st.aliveSeq))
			st.rates = rates
		}
		rates = rates[:len(st.aliveSeq)]
		for i := range rates {
			rates[i] = 0
		}
		var horizon float64
		if hetero {
			horizon = ma.RatesEnv(now, views, &st.env, rates)
			if err := checkRatesUniform(rates, &st.env, &st.rateSort); err != nil {
				return fmt.Errorf("%w at t=%v (policy %s): %v", ErrBadRates, now, policy.Name(), err)
			}
		} else {
			horizon = policy.Rates(now, views, opts.Machines, opts.Speed, rates)
			if err := checkRates(rates, opts.Machines); err != nil {
				return fmt.Errorf("%w at t=%v (policy %s): %v", ErrBadRates, now, policy.Name(), err)
			}
		}
		if pc > 0 {
			// Charge preemptions before sizing the step: a job whose rate
			// just dropped from positive to zero was kicked off a machine
			// and owes PreemptCost extra work. The views the policy saw
			// reflect the pre-charge remaining work (the decision precedes
			// the cost). RR never pays — every alive job keeps a positive
			// share — while priority policies pay per displacement.
			for i := range st.aliveSeq {
				if st.alivePrev[i] > 0 && rates[i] <= 0 {
					st.aliveJob[i].Size += pc
				}
				st.alivePrev[i] = rates[i]
			}
		}

		// Determine the time to the next event.
		dt := math.Inf(1)
		if cur.More() {
			dt = cur.Head().Release - now
		}
		if horizon > 0 && horizon < dt {
			dt = horizon
		}
		totalRate := 0.0
		for i := range st.aliveSeq {
			ρ := rates[i]
			totalRate += ρ
			if ρ <= 0 {
				continue
			}
			rem := st.aliveJob[i].Size - st.aliveEl[i]
			if d := rem / (ρ * opts.Speed); d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			if totalRate <= 0 {
				return fmt.Errorf("%w at t=%v: %d alive, no arrivals pending (policy %s)", ErrStarvation, now, len(st.aliveSeq), policy.Name())
			}
			// Unreachable: positive total rate implies a finite
			// completion bound above; guard anyway.
			return fmt.Errorf("core: internal error: infinite step at t=%v", now)
		}
		if dt < minAdvance {
			dt = minAdvance
		}

		end := now + dt
		if opts.RecordSegments {
			seg := Segment{
				Start: now,
				End:   end,
				Jobs:  append([]int(nil), st.aliveSeq...),
				Rates: append([]float64(nil), rates[:len(st.aliveSeq)]...),
			}
			res.Segments = append(res.Segments, seg)
		}
		if obs != nil {
			// The epoch lives on the workspace so its address reaching the
			// interface call allocates nothing; its slices alias the
			// engine's per-step scratch (copy-or-drop for the observer).
			ws.obsEpoch = Epoch{
				Start:   now,
				End:     end,
				Alive:   len(st.aliveSeq),
				RateSum: totalRate,
				Jobs:    st.aliveSeq,
				Rates:   rates[:len(st.aliveSeq)],
			}
			obs.ObserveEpoch(&ws.obsEpoch)
		}

		// Advance work and collect completions, compacting survivors in
		// place (order-preserving, like the old keep/append idiom).
		w := 0
		for i := range st.aliveSeq {
			st.aliveEl[i] += rates[i] * opts.Speed * dt
			rem := st.aliveJob[i].Size - st.aliveEl[i]
			if rem <= CompletionTol(st.aliveJob[i].Size) {
				recordCompletion(res, sum, obs, st.aliveSeq[i], st.aliveJob[i].Release, end)
				continue
			}
			st.aliveSeq[w] = st.aliveSeq[i]
			st.aliveJob[w] = st.aliveJob[i]
			st.aliveEl[w] = st.aliveEl[i]
			if pc > 0 {
				st.alivePrev[w] = st.alivePrev[i]
			}
			w++
		}
		st.aliveSeq = st.aliveSeq[:w]
		st.aliveJob = st.aliveJob[:w]
		st.aliveEl = st.aliveEl[:w]
		if pc > 0 {
			st.alivePrev = st.alivePrev[:w]
		}
		now = end
	}

	if res != nil {
		res.Events = events
	} else {
		sum.Events = events
	}
	return cur.Err()
}

// recordCompletion delivers one job completion to the active sink —
// materialized per-job arrays or streaming aggregates — and the observer.
func recordCompletion(res *Result, sum *StreamResult, obs Observer, seq int, release, t float64) {
	flow := t - release
	if res != nil {
		res.Completion[seq] = t
		res.Flow[seq] = flow
	} else {
		sum.Completed++
		if t > sum.Makespan {
			sum.Makespan = t
		}
		if flow > sum.MaxFlow {
			sum.MaxFlow = flow
		}
	}
	if obs != nil {
		obs.ObserveCompletion(t, seq, flow)
	}
}

// FlowByID returns a map from job ID to flow time.
func (r *Result) FlowByID() map[int]float64 {
	m := make(map[int]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		m[j.ID] = r.Flow[i]
	}
	return m
}

// CompletionTol returns the absolute remaining-work threshold below which a
// job counts as complete, scaled to the job size to be robust across
// magnitudes. It is exported so the fast engine (internal/fast) and the
// differential harness (internal/check) apply the exact same completion
// semantics as the reference engine.
func CompletionTol(size float64) float64 {
	t := 1e-12 * size
	if t < 1e-15 {
		t = 1e-15
	}
	return t
}

func checkRates(rates []float64, m int) error {
	sum := 0.0
	for i := range rates {
		r := rates[i]
		if math.IsNaN(r) || r < -rateTol || r > 1+rateTol {
			return fmt.Errorf("rate[%d]=%v out of [0,1]", i, r)
		}
		if r < 0 {
			rates[i] = 0
			r = 0
		}
		if r > 1 {
			rates[i] = 1
			r = 1
		}
		sum += r
	}
	if sum > float64(m)+rateTol*float64(len(rates)+1) {
		return fmt.Errorf("rate sum %v exceeds m=%d", sum, m)
	}
	return nil
}
