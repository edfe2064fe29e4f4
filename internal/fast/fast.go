// Package fast is the event-driven fast-path simulation engine. For the
// structured policies — Round Robin, SRPT, SJF, FCFS and StaticPriority —
// it produces the same schedules as the reference engine (core.Run) in
// O((n + completions) log n) instead of the reference's O(events · n_t):
// RR via incremental virtual-time ("fair share") accounting, the rank-based
// policies via three inline-key heaps over the running and waiting sets.
//
// Each path is one bulk-advance event loop per sink: RR runs rrMat.run for
// a materialized result and runRRStream for a stream; the rank-based
// policies run topmRun.run for both. Every output bit of those loops is
// pinned by TestFastEngineDigests in internal/check
// (testdata/fast_digests.txt), so a refactor of a loop or heap must leave
// each digest unchanged.
//
// Run is a drop-in replacement for core.Run that honors
// core.Options.Engine: it dispatches to a fast path when one exists and
// falls back to the reference engine for arbitrary Policy implementations
// (or when an observer such as core.SegmentRecorder needs per-job epochs,
// which only the reference engine produces).
//
// Agreement with the reference engine — completion times, flows and
// ℓk-norms within 1e-6 — is enforced by the differential-testing oracle
// harness in internal/check (bulk tests, a fuzz target and property tests).
// The one intentional semantic gap: both engines complete a job once its
// remaining work is within core.CompletionTol of zero at an event boundary,
// so per-job discrepancies are bounded by tolerance/rate, never
// accumulated.
package fast

import (
	"errors"
	"fmt"
	"math"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
)

// ErrNoFastPath reports that core.Options required the fast engine
// (EngineFast) but the policy/options combination has no fast path.
var ErrNoFastPath = errors.New("fast: no fast path for policy/options")

// ctxStride is the event interval between Options.Context cancellation
// polls in the fast paths — a power of two so the check is a mask; coarser
// than the reference engine's because fast-path events are ~100× cheaper.
const ctxStride = 256

// Eligible reports whether the policy/options combination has a fast path:
// one of the structured policies, with no observer that needs per-job
// epochs (the fast paths emit aggregate-only epochs, so a
// core.SegmentRecorder's rate timeline comes from the reference engine
// only). Under a
// heterogeneous machine model only RR is eligible: its fair share stays a
// single per-alive-count scalar (water-filling), while the rank-based paths
// assume the m identical-speed slots that make completion-if-unpreempted
// times policy-independent.
func Eligible(p core.Policy, opts core.Options) bool {
	if core.ObserverNeedsJobEpochs(opts.Observer) {
		return false
	}
	switch p.(type) {
	case policy.RR, *policy.RR:
		return true
	case *policy.SRPT, *policy.SJF, *policy.FCFS, *policy.StaticPriority:
		return opts.MachineModel.Default()
	}
	return false
}

// Run simulates the policy on the instance, honoring opts.Engine:
//
//   - core.EngineAuto (the zero value): fast path when Eligible, reference
//     engine otherwise;
//   - core.EngineReference: always core.Run;
//   - core.EngineFast: fast path required — ErrNoFastPath when there is
//     none.
//
// Results are interchangeable with core.Run's (same normalized job order,
// completions, flows); the fast paths do not record segments and do not
// consume the MaxEvents budget (their event count is structurally bounded
// by 2n).
func Run(in *core.Instance, p core.Policy, opts core.Options) (*core.Result, error) {
	return RunWS(in, p, opts, nil)
}

// RunWS is Run with an optional reusable workspace, mirroring core.RunWS:
// with a non-nil ws both the fast paths and the reference fallback draw
// every buffer — including the returned Result — from ws, performing zero
// steady-state heap allocations after the first run; the result is then
// workspace-owned (see core.Workspace for the ownership rule). ws == nil
// behaves exactly like Run. Outputs are byte-identical either way.
func RunWS(in *core.Instance, p core.Policy, opts core.Options, ws *core.Workspace) (*core.Result, error) {
	switch opts.Engine {
	case core.EngineReference:
		return core.RunWS(in, p, opts, ws)
	case core.EngineAuto, core.EngineFast:
	default:
		return nil, fmt.Errorf("%w: unknown Engine %d", core.ErrBadOptions, opts.Engine)
	}
	if !Eligible(p, opts) {
		if opts.Engine == core.EngineFast {
			return nil, fmt.Errorf("%w: policy %s (observer needs job epochs=%v)",
				ErrNoFastPath, p.Name(), core.ObserverNeedsJobEpochs(opts.Observer))
		}
		return core.RunWS(in, p, opts, ws)
	}
	// Same input contract as core.Run.
	if opts.Machines < 1 {
		return nil, fmt.Errorf("%w: Machines=%d", core.ErrBadOptions, opts.Machines)
	}
	if !(opts.Speed > 0) || math.IsInf(opts.Speed, 0) {
		return nil, fmt.Errorf("%w: Speed=%v", core.ErrBadOptions, opts.Speed)
	}
	if err := core.ValidateMachineOptions(p, opts); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = core.NewWorkspace()
	}
	res, err := ws.StartRun(in, p.Name(), opts)
	if err != nil {
		return nil, err
	}
	// A materialized run is a streaming run over the normalized job slice:
	// the fast paths consume a core.Cursor either way, so RunWS and
	// RunStream share every event loop byte for byte. The cursor lives on
	// the scratch, not the stack — run-struct contents leak through the
	// Observer interface, which would force a stack cursor to the heap.
	s := scratchOf(ws)
	s.cur = core.CursorOver(res.Jobs)
	err = dispatch(p, &s.cur, res, nil, opts, s)
	s.cur = core.Cursor{}
	if err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		opts.Observer.ObserveDone(res)
	}
	return res, nil
}

// RunStream simulates a policy over a core.JobSource without materializing
// it, honoring opts.Engine exactly like RunWS: fast path when Eligible,
// the reference engine's core.RunStream otherwise (EngineFast demands the
// fast path). The engine buffers only the alive set plus a one-job
// lookahead; per-job outputs flow through opts.Observer and the aggregate
// outcome returns as a StreamResult. ws follows the same reuse rules as
// RunWS; ws == nil allocates a private workspace.
func RunStream(src core.JobSource, p core.Policy, opts core.Options, ws *core.Workspace) (core.StreamResult, error) {
	switch opts.Engine {
	case core.EngineReference:
		return core.RunStream(src, p, opts, ws)
	case core.EngineAuto, core.EngineFast:
	default:
		return core.StreamResult{}, fmt.Errorf("%w: unknown Engine %d", core.ErrBadOptions, opts.Engine)
	}
	if !Eligible(p, opts) {
		if opts.Engine == core.EngineFast {
			return core.StreamResult{}, fmt.Errorf("%w: policy %s (observer needs job epochs=%v)",
				ErrNoFastPath, p.Name(), core.ObserverNeedsJobEpochs(opts.Observer))
		}
		return core.RunStream(src, p, opts, ws)
	}
	// Same input contract as core.RunStream.
	if opts.Machines < 1 {
		return core.StreamResult{}, fmt.Errorf("%w: Machines=%d", core.ErrBadOptions, opts.Machines)
	}
	if !(opts.Speed > 0) || math.IsInf(opts.Speed, 0) {
		return core.StreamResult{}, fmt.Errorf("%w: Speed=%v", core.ErrBadOptions, opts.Speed)
	}
	if err := core.ValidateMachineOptions(p, opts); err != nil {
		return core.StreamResult{}, err
	}
	if ws == nil {
		ws = core.NewWorkspace()
	}
	// Cursor and summary live on the scratch for the same escape reason as
	// in RunWS; both are cleared before returning so the source interface
	// does not outlive the run.
	s := scratchOf(ws)
	s.sum = core.StreamResult{Policy: p.Name(), Machines: opts.Machines, Speed: opts.Speed, MachineModel: opts.MachineModel}
	s.cur = core.CursorFrom(src)
	err := dispatch(p, &s.cur, nil, &s.sum, opts, s)
	if err == nil {
		s.sum.N = s.cur.Pulled()
	}
	sum := s.sum
	s.cur = core.Cursor{}
	s.sum = core.StreamResult{}
	if err != nil {
		return core.StreamResult{}, err
	}
	ws.ObserveStreamDone(opts.Observer, &sum)
	return sum, nil
}

// dispatch routes one run — arrivals from cur, completions into exactly one
// of res/sum — to the policy's fast path. Eligibility was already checked.
func dispatch(p core.Policy, cur *core.Cursor, res *core.Result, sum *core.StreamResult, opts core.Options, s *scratch) error {
	switch pp := p.(type) {
	case policy.RR, *policy.RR:
		core.BuildMachineEnv(&opts, &s.env)
		if res != nil {
			return runRRMat(res, opts, s)
		}
		r := rrRun{cur: cur, sum: sum, h: &s.rrHeap, m: opts.Machines, speed: opts.Speed, obs: opts.Observer, ep: &s.epoch, env: &s.env, hetero: !s.env.Identical()}
		return runRRStream(&r, opts, s)
	case *policy.SRPT:
		s.prepareTopM(ordSRPT, opts.Speed)
		r := topmRun{cur: cur, res: res, sum: sum, s: s, obs: opts.Observer, km: keyNone}
		return r.run(opts)
	case *policy.SJF:
		s.prepareTopM(ordStatic, opts.Speed)
		r := topmRun{cur: cur, res: res, sum: sum, s: s, obs: opts.Observer, km: keySize}
		return r.run(opts)
	case *policy.FCFS:
		// Arrival-sequence order is (Release, ID) order — FCFS itself.
		s.prepareTopM(ordStatic, opts.Speed)
		r := topmRun{cur: cur, res: res, sum: sum, s: s, obs: opts.Observer, km: keyNone}
		return r.run(opts)
	case *policy.StaticPriority:
		s.prepareTopM(ordStatic, opts.Speed)
		r := topmRun{cur: cur, res: res, sum: sum, s: s, obs: opts.Observer, km: keyPriority, prio: pp}
		return r.run(opts)
	}
	// Unreachable: Eligible covered the type switch.
	return fmt.Errorf("%w: policy %s", ErrNoFastPath, p.Name())
}
