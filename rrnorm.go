// Package rrnorm is a faithful, executable reproduction of
//
//	"Temporal Fairness of Round Robin: Competitive Analysis for Lk-norms
//	 of Flow Time" — Im, Kulkarni, Moseley, SPAA 2015,
//
// as a Go library: an exact event-driven simulator for preemptive
// scheduling on m identical machines with resource augmentation, the
// policies the paper analyzes or cites (RR, SRPT, SJF, SETF, FCFS, WRR,
// LAPS, MLFQ), ℓk-norm flow-time metrics, a certified LP lower bound on the
// optimum (via an exact min-cost-flow solve of the paper's LP relaxation),
// an exact branch-and-bound optimum for small instances, and the paper's
// dual-fitting analysis (α/β variables, Lemmas 1–4) as a runnable
// certificate.
//
// This package is the stable facade; the implementation lives in
// internal/* (see DESIGN.md for the system inventory). Quick start:
//
//	in := rrnorm.FromSpecMust("poisson:n=200,load=0.9,dist=exp", 1)
//	res, _ := rrnorm.Simulate(in, "RR", rrnorm.Options{Machines: 1, Speed: 2})
//	fmt.Println(rrnorm.LkNorm(res.Flow, 2))
package rrnorm

import (
	"context"
	"fmt"

	"rrnorm/internal/batch"
	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/fast"
	"rrnorm/internal/lp"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/workload"
)

// Core model types, re-exported.
type (
	// Job is a single request: released at Release, needing Size units of
	// processing.
	Job = core.Job
	// Instance is a set of jobs.
	Instance = core.Instance
	// Options configures a simulation (machines, speed augmentation,
	// engine, observer).
	Options = core.Options
	// Result is a simulated schedule's completions and flows.
	Result = core.Result
	// Segment is one rate-constant interval of a run's rate timeline.
	Segment = core.Segment
	// SegmentRecorder is the Observer that records a run's rate timeline
	// for Gantt, TimeStats and FractionalFlows; attach it via
	// Options.Observer and read its Segments after the run.
	SegmentRecorder = core.SegmentRecorder
	// Policy is the scheduling-policy interface; see internal/policy for
	// the implementations and internal/core for the contract.
	Policy = core.Policy
	// Certificate is the paper's dual-fitting certificate; see
	// internal/dual.
	Certificate = dual.Certificate
)

// NewInstance builds a normalized instance from jobs.
func NewInstance(jobs []Job) *Instance { return core.NewInstance(jobs) }

// Policies lists the registered policy names
// (FCFS, LAPS, MLFQ, RR, SETF, SJF, SRPT, WRR).
func Policies() []string { return policy.Names() }

// NewPolicy constructs a registered policy by name with default parameters.
func NewPolicy(name string) (Policy, error) { return policy.New(name) }

// EngineKind selects the simulation engine; see Options.Engine. The zero
// value (EngineAuto) uses the event-driven fast engine for structured
// policies (RR, SRPT, SJF, FCFS, StaticPriority) and the step-based
// reference engine otherwise; both produce the same schedules (enforced by
// the differential harness in internal/check).
type EngineKind = core.EngineKind

// Engine selector values for Options.Engine.
const (
	EngineAuto      = core.EngineAuto
	EngineReference = core.EngineReference
	EngineFast      = core.EngineFast
)

// ParseEngineKind parses "auto", "reference"/"ref" or "fast" (as used by
// the CLI -engine flags).
func ParseEngineKind(s string) (EngineKind, error) { return core.ParseEngineKind(s) }

// Simulate runs the named policy on the instance, honoring opts.Engine.
func Simulate(in *Instance, policyName string, opts Options) (*Result, error) {
	p, err := policy.New(policyName)
	if err != nil {
		return nil, err
	}
	return fast.Run(in, p, opts)
}

// SimulateWith runs a caller-provided policy (e.g. a custom core.Policy
// implementation) on the instance, honoring opts.Engine.
func SimulateWith(in *Instance, p Policy, opts Options) (*Result, error) {
	return fast.Run(in, p, opts)
}

// BatchPoint is one (instance, policy, options) simulation of a batch; see
// SimulateBatch. Instances may be shared between points (they are
// read-only during a run); the policy is constructed fresh per point from
// its registered name, so policy state is never shared.
type BatchPoint struct {
	Instance *Instance
	Policy   string
	Options  Options
}

// SimulateBatch runs the points over a bounded worker pool — workers ≤ 0
// means GOMAXPROCS — in which every worker reuses one pooled simulation
// workspace, so peak memory stays O(workers · largest instance) and the
// engine hot path allocates nothing in steady state, for arbitrarily large
// sweep grids. Results are in point order and byte-identical to calling
// Simulate on each point sequentially; the first error by lowest point
// index wins. The experiment sweeps (internal/exp), rrserve's /v1/compare
// and `rrbench -parallel` all run on this path.
func SimulateBatch(points []BatchPoint, workers int) ([]*Result, error) {
	pts := make([]batch.Point, len(points))
	for i, bp := range points {
		p, err := policy.New(bp.Policy)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pts[i] = batch.Point{Instance: bp.Instance, Policy: p, Options: bp.Options}
	}
	return batch.Simulate(context.Background(), pts, workers)
}

// SimulateSharded runs the named index policy (SRPT, SJF or FCFS) under
// round-robin immediate dispatch: the job with normalized arrival rank g is
// assigned to machine g mod opts.Machines, and each machine runs the policy
// on its own jobs at Machines = 1 — m independent shards executed on up to
// `workers` goroutines (≤ 0 means GOMAXPROCS) and merged deterministically,
// so the result is byte-identical at every worker count. This is a
// different discipline from the global policy on m machines (jobs never
// migrate between machines); the result's Policy field carries a "+shard"
// suffix to keep the two apart. See internal/batch.RunSharded for the
// streaming-observer variant that merges per-shard StreamNorms.
func SimulateSharded(in *Instance, policyName string, opts Options, workers int) (*Result, error) {
	return batch.RunSharded(context.Background(), in, policyName, opts, workers, nil, nil)
}

// Fingerprint returns a canonical SHA-256 digest of (instance, policy,
// options): two calls fingerprint equal iff they describe the same
// simulation, independent of the caller's job order. It is the cache key
// rrserve (internal/serve) uses to memoize and dedupe simulation requests.
func Fingerprint(in *Instance, policyName string, opts Options) string {
	return core.Fingerprint(in, policyName, opts)
}

// LkNorm returns (Σ flows^k)^{1/k}.
func LkNorm(flows []float64, k int) float64 { return metrics.LkNorm(flows, k) }

// KthPowerSum returns Σ flows^k — the quantity the paper's analysis bounds.
func KthPowerSum(flows []float64, k int) float64 { return metrics.KthPowerSum(flows, k) }

// Observer receives a run's event stream (arrivals, rate-constant epochs,
// completions, the finished result) as the engine produces it, so metrics
// can be reduced in a single pass instead of post-processing a recorded
// Segment timeline (SegmentRecorder is the observer that records one).
// Set it via Options.Observer; DESIGN.md §13 has the
// exact callback contract, including the copy-or-drop ownership rule for
// engine-owned slices.
type Observer = core.Observer

// Epoch is one rate-constant interval of a running simulation, as seen by
// an Observer — the streaming counterpart of a recorded Segment.
type Epoch = core.Epoch

// StreamNorm is an Observer that accumulates ℓk norms and k-th power sums
// of flow time online, in O(#ks) state: attach one via Options.Observer
// and a million-job run needs neither Result.Flow post-processing nor a
// Segment timeline.
type StreamNorm = metrics.StreamNorm

// NewStreamNorm returns a StreamNorm tracking the given norm orders.
func NewStreamNorm(ks ...int) *StreamNorm { return metrics.NewStreamNorm(ks...) }

// MultiObserver fans a run's event stream out to several observers: it
// returns nil when none are given and the observer itself when exactly
// one is.
func MultiObserver(obs ...Observer) Observer { return core.Multi(obs...) }

// JobSource is a release-ordered pull iterator of jobs — the streaming
// input both engines accept in place of a materialized Instance. Next
// returns the next job and true, or a zero Job and false at the end of the
// stream (or an error, which ends the run). Jobs must arrive in
// nondecreasing Release order; violations surface as ErrBadSource-wrapped
// errors. internal/trace decodes NDJSON/CSV traces as a JobSource, and
// workload's Stream/Fitted sources generate synthetic ones.
type JobSource = core.JobSource

// StreamResult is the scalar summary of a streaming run: job and event
// counts, makespan and max flow. Per-job data never materializes — attach
// Observers (StreamNorm, timeline, ...) for anything per-completion.
type StreamResult = core.StreamResult

// ErrBadSource wraps every job-validation or source failure surfaced
// during a streaming run (errors.Is-matchable).
var ErrBadSource = core.ErrBadSource

// NewInstanceSource adapts a materialized Instance into a JobSource. A
// streaming run over it is bit-identical to the materialized run of the
// same instance (enforced by the differential wall in internal/check).
func NewInstanceSource(in *Instance) JobSource { return core.NewInstanceSource(in) }

// SimulateStream runs the named policy over a streaming job source,
// honoring opts.Engine. Memory stays bounded by the schedule's alive set
// regardless of how many jobs the source yields: at n=10⁷ the whole run
// fits in a few MB of RSS (TestStreamReplayRSS) where the materialized
// instance alone would need hundreds.
func SimulateStream(src JobSource, policyName string, opts Options) (StreamResult, error) {
	p, err := policy.New(policyName)
	if err != nil {
		return StreamResult{}, err
	}
	return fast.RunStream(src, p, opts, core.NewWorkspace())
}

// LowerBound returns a certified lower bound on the optimal Σ F^k on m
// unit-speed machines (max of the LP/2 relaxation bound and Σ p^k).
func LowerBound(in *Instance, m, k int) (float64, error) {
	b, err := lp.KPowerLowerBound(in, m, k, lp.Options{})
	if err != nil {
		return 0, err
	}
	return b.Value, nil
}

// Certify runs Round Robin at the paper's Theorem 1 speed 2k(1+10ε) on m
// machines and returns the dual-fitting certificate for the resulting
// schedule.
func Certify(in *Instance, m, k int, eps float64) (*Certificate, error) {
	// The witness observer builds the certificate during the run — no
	// Segment timeline — and produces certificates identical to recording
	// + dual.Build (pinned by the differential tests in internal/check).
	// It needs per-job epochs, so the dispatcher routes it to the
	// reference engine.
	w, err := dual.NewWitnessObserver(k, eps, m)
	if err != nil {
		return nil, err
	}
	if _, err := Simulate(in, "RR", Options{Machines: m, Speed: dual.Eta(k, eps), Observer: w}); err != nil {
		return nil, err
	}
	return w.Certificate()
}

// FractionalFlows computes per-job fractional flow times
// ∫ (remaining fraction) dt from a run and the rate timeline a
// SegmentRecorder recorded during it.
func FractionalFlows(res *Result, segs []Segment) ([]float64, error) {
	return core.FractionalFlows(res, segs)
}

// Gantt renders a run's recorded rate timeline as an ASCII chart (one row
// per job, glyph darkness ∝ rate).
func Gantt(res *Result, segs []Segment, width int) string { return core.RenderGantt(res, segs, width) }

// TimeStats derives time-average statistics (alive count, utilization,
// busy periods, overload time) from a run's recorded rate timeline.
func TimeStats(res *Result, segs []Segment) core.TimeStats { return core.ComputeTimeStats(res, segs) }

// WeightedLkNorm returns (Σ w_j F_j^k)^{1/k}; zero weights default to 1.
func WeightedLkNorm(flows, weights []float64, k int) float64 {
	return metrics.WeightedLkNorm(flows, weights, k)
}

// FromSpec builds a workload from a compact textual spec; see
// internal/workload.FromSpec for the grammar (poisson, batch, bursts,
// rrstream, cascade, starvation, staircase, trace, swf, fitted).
func FromSpec(spec string, seed uint64) (*Instance, error) {
	return workload.FromSpec(spec, seed)
}

// FromSpecMust is FromSpec that panics on error — for examples and tests.
func FromSpecMust(spec string, seed uint64) *Instance {
	in, err := workload.FromSpec(spec, seed)
	if err != nil {
		panic(fmt.Sprintf("rrnorm: %v", err))
	}
	return in
}
