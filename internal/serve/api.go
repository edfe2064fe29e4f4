// Package serve is the HTTP serving layer for the simulator: rrserve.
//
// It exposes the library's simulate/compare surface as a small JSON API
// with production concerns handled explicitly — a bounded worker pool with
// a fixed-capacity admission queue (429 + Retry-After on overflow),
// per-request deadlines plumbed as context cancellation into the simulation
// engines (504 on expiry), a sharded LRU result cache with singleflight
// dedup of identical in-flight requests, graceful drain, and an
// observability surface (/metrics, /healthz, optional pprof).
//
// Determinism is a hard API guarantee: a response is the JSON encoding of a
// deterministic computation over (workload, policy, options), so the same
// request always yields byte-identical bytes whether it was computed, cache
// hit, or deduped against a concurrent twin. The race-mode stress tests in
// this package enforce exactly that.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/hunt"
	"rrnorm/internal/metrics"
	"rrnorm/internal/polspec"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// Request-surface limits; requests beyond them are rejected with 400
// before any simulation work happens.
const (
	// MaxInlineJobs bounds the jobs array of an inline-workload request.
	MaxInlineJobs = 200_000
	// MaxSpecJobs bounds the instance size a workload spec may generate.
	MaxSpecJobs = 1_000_000
	// MaxNorms bounds the requested ℓk-norm list.
	MaxNorms = 16
	// MaxNormK bounds each requested k (float64 overflows past ~e308^(1/k)).
	MaxNormK = 64
	// MaxComparePolicies bounds the fan-out of one /v1/compare request.
	MaxComparePolicies = 32
	// MaxBodyBytes bounds a request body (inline jobs dominate: ~100 bytes
	// of JSON per job).
	MaxBodyBytes = 32 << 20
)

// JobSpec is one inline job in a request body.
type JobSpec struct {
	ID      int     `json:"id"`
	Release float64 `json:"release"`
	Size    float64 `json:"size"`
	Weight  float64 `json:"weight,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate. The workload is given
// either as a compact spec (internal/workload.FromSpec grammar, seeded) or
// as inline jobs — exactly one of the two.
type SimulateRequest struct {
	// Spec is a workload spec such as "poisson:n=200,load=0.9,dist=exp".
	// File-backed kinds (trace, swf) are rejected: the server never reads
	// paths from request bodies.
	Spec string `json:"spec,omitempty"`
	// Seed drives the workload generator when Spec is set.
	Seed uint64 `json:"seed,omitempty"`
	// Jobs is the inline workload alternative to Spec.
	Jobs []JobSpec `json:"jobs,omitempty"`
	// Policy is a policy spec (internal/polspec grammar): "RR", "SRPT",
	// "LAPS:beta=0.3", ...
	Policy string `json:"policy"`
	// Machines is m ≥ 1 (default 1; defaults to len(machine_speeds) when
	// that is set).
	Machines int `json:"machines,omitempty"`
	// Speed is the resource-augmentation factor s > 0 (default 1).
	Speed float64 `json:"speed,omitempty"`
	// MachineSpeeds gives each machine its own relative speed (uniform
	// machine model); empty means machines identical unit-speed machines.
	// When set, its length must equal machines (or machines may be omitted).
	MachineSpeeds []float64 `json:"machine_speeds,omitempty"`
	// PreemptCost is the extra work a job is charged each time a running
	// job is preempted (default 0; must be finite and ≥ 0).
	PreemptCost float64 `json:"preempt_cost,omitempty"`
	// Engine selects the simulation engine: auto (default), reference, fast.
	Engine string `json:"engine,omitempty"`
	// Norms lists the k values to report ℓk-norms for (default [1 2 3]).
	Norms []int `json:"norms,omitempty"`
	// Detail additionally returns per-job completions and flows.
	Detail bool `json:"detail,omitempty"`
	// Timeline additionally returns the run's time-averaged schedule
	// statistics (busy time, overload time, average/peak alive count),
	// accumulated by a streaming observer during the run — the engine
	// never materializes a Segment timeline for it.
	Timeline bool `json:"timeline,omitempty"`
}

// CompareRequest is the body of POST /v1/compare: one workload fanned out
// over several policies with shared options.
type CompareRequest struct {
	Spec          string    `json:"spec,omitempty"`
	Seed          uint64    `json:"seed,omitempty"`
	Jobs          []JobSpec `json:"jobs,omitempty"`
	Policies      []string  `json:"policies"`
	Machines      int       `json:"machines,omitempty"`
	Speed         float64   `json:"speed,omitempty"`
	MachineSpeeds []float64 `json:"machine_speeds,omitempty"`
	PreemptCost   float64   `json:"preempt_cost,omitempty"`
	Engine        string    `json:"engine,omitempty"`
	Norms         []int     `json:"norms,omitempty"`
}

// NormValue is one reported ℓk-norm.
type NormValue struct {
	K     int     `json:"k"`
	Value float64 `json:"value"`
}

// FlowSummary is the fairness/variability digest of a flow-time vector —
// the statistics the paper's temporal-fairness story is about.
type FlowSummary struct {
	MeanFlow float64 `json:"mean_flow"`
	MaxFlow  float64 `json:"max_flow"`
	Stddev   float64 `json:"stddev"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	Jain     float64 `json:"jain_index"`
}

// TimelineInfo is the observer-computed schedule timeline digest returned
// when SimulateRequest.Timeline is set.
type TimelineInfo struct {
	Start            float64 `json:"start"`
	End              float64 `json:"end"`
	BusyTime         float64 `json:"busy_time"`
	BusyPeriods      int     `json:"busy_periods"`
	AvgAlive         float64 `json:"avg_alive"`
	MaxAlive         int     `json:"max_alive"`
	Utilization      float64 `json:"utilization"`
	OverloadedTime   float64 `json:"overloaded_time"`
	OverloadFraction float64 `json:"overload_fraction"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	Policy        string        `json:"policy"`
	Machines      int           `json:"machines"`
	Speed         float64       `json:"speed"`
	MachineSpeeds []float64     `json:"machine_speeds,omitempty"`
	PreemptCost   float64       `json:"preempt_cost,omitempty"`
	Engine        string        `json:"engine"`
	N             int           `json:"n"`
	Events        int           `json:"events"`
	Norms         []NormValue   `json:"norms"`
	Summary       FlowSummary   `json:"summary"`
	Timeline      *TimelineInfo `json:"timeline,omitempty"`
	Completions   []float64     `json:"completions,omitempty"`
	Flows         []float64     `json:"flows,omitempty"`
}

// CompareEntry is one policy's row in a compare response, ordered as
// requested.
type CompareEntry struct {
	Policy  string      `json:"policy"`
	Norms   []NormValue `json:"norms"`
	Summary FlowSummary `json:"summary"`
}

// CompareResponse is the body of a successful POST /v1/compare.
type CompareResponse struct {
	Machines      int            `json:"machines"`
	Speed         float64        `json:"speed"`
	MachineSpeeds []float64      `json:"machine_speeds,omitempty"`
	PreemptCost   float64        `json:"preempt_cost,omitempty"`
	Engine        string         `json:"engine"`
	N             int            `json:"n"`
	Policies      []CompareEntry `json:"policies"`
}

// PoliciesResponse is the body of GET /v1/policies.
type PoliciesResponse struct {
	Policies []string `json:"policies"`
}

// apiError is a structured request failure; Status picks the HTTP code and
// the rest is the JSON error body.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: 400, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

// decodeJSON decodes a request body strictly: unknown fields, trailing
// garbage and oversized bodies are all 400s, so accept/reject is total over
// arbitrary input (the FuzzSimulateRequest target's invariant).
func decodeJSON(r io.Reader, dst any) *apiError {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// simSpec is a validated, normalized simulation request: everything needed
// to run one policy on one workload, plus the derived cache key.
//
// For spec workloads the instance is built lazily by materialize — the
// cache key hashes (spec, seed) directly, so a cache hit never pays for
// generation. Inline workloads build eagerly: their key needs the jobs.
type simSpec struct {
	req      SimulateRequest
	opts     core.Options // Context is filled in per attempt, never hashed
	norms    []int
	instance *core.Instance // nil for spec workloads until materialize
	// anomalies, when non-nil, makes run attach a streaming invariant
	// monitor and add its finding count here (Config.MonitorAnomalies;
	// set by Server.execute, never hashed into the cache key).
	anomalies *expvar.Int
}

// materialize generates and validates the instance for a spec workload
// (deterministic in (spec, seed), so laziness is unobservable). Generation
// failures are the client's fault and map to 400; because the cache never
// stores errors, a deferred rejection is recomputed — and re-reported —
// on every attempt, exactly like an eager one.
func (s *simSpec) materialize() *apiError {
	if s.instance != nil {
		return nil
	}
	in, err := workload.FromSpec(s.req.Spec, s.req.Seed)
	if err != nil {
		return badRequest("workload spec: %v", err)
	}
	if in.N() > MaxSpecJobs {
		return badRequest("spec generates %d jobs, limit is %d", in.N(), MaxSpecJobs)
	}
	if err := in.Validate(); err != nil {
		// Degenerate generator parameters (e.g. load=0 → infinite
		// interarrivals) surface here as the client's fault, not a 500.
		return badRequest("spec generates an invalid instance: %v", err)
	}
	s.instance = in
	return nil
}

// validateMachineModel checks the heterogeneous-machine fields shared by
// every endpoint, resolving the machine count: an omitted machines defaults
// to len(speeds) when speeds are given (and to the caller's default — 1 —
// otherwise).
func validateMachineModel(speeds []float64, preemptCost float64, machines int) (core.Machines, int, *apiError) {
	if machines == 0 {
		if len(speeds) > 0 {
			machines = len(speeds)
		} else {
			machines = 1
		}
	}
	if len(speeds) > 0 && len(speeds) != machines {
		return core.Machines{}, 0, badRequest("machine_speeds has %d entries for machines=%d", len(speeds), machines)
	}
	for i, s := range speeds {
		if !(s > 0) || math.IsInf(s, 0) {
			return core.Machines{}, 0, badRequest("machine_speeds[%d] must be a positive finite number, got %v", i, s)
		}
	}
	if preemptCost < 0 || math.IsNaN(preemptCost) || math.IsInf(preemptCost, 0) {
		return core.Machines{}, 0, badRequest("preempt_cost must be a non-negative finite number, got %v", preemptCost)
	}
	return core.Machines{Speeds: speeds, PreemptCost: preemptCost}, machines, nil
}

// validateWorkload checks the shared workload/options fields and builds
// the instance. It is the one place request input can turn into jobs, so
// every limit is enforced here.
func validateWorkload(spec string, seed uint64, jobs []JobSpec, machines int, speed float64, machineSpeeds []float64, preemptCost float64, engine string, norms []int) (*core.Instance, core.Options, []int, *apiError) {
	var opts core.Options
	if (spec == "") == (len(jobs) == 0) {
		return nil, opts, nil, badRequest("exactly one of spec and jobs must be set")
	}
	mm, machines, aerr := validateMachineModel(machineSpeeds, preemptCost, machines)
	if aerr != nil {
		return nil, opts, nil, aerr
	}
	if machines < 1 {
		return nil, opts, nil, badRequest("machines must be ≥ 1, got %d", machines)
	}
	if speed == 0 {
		speed = 1
	}
	if !(speed > 0) || math.IsInf(speed, 0) {
		return nil, opts, nil, badRequest("speed must be a positive finite number, got %v", speed)
	}
	eng, err := core.ParseEngineKind(engine)
	if err != nil {
		return nil, opts, nil, badRequest("%v", err)
	}
	if len(norms) == 0 {
		norms = []int{1, 2, 3}
	}
	if len(norms) > MaxNorms {
		return nil, opts, nil, badRequest("at most %d norms per request, got %d", MaxNorms, len(norms))
	}
	for _, k := range norms {
		if k < 1 || k > MaxNormK {
			return nil, opts, nil, badRequest("norm k must be in [1, %d], got %d", MaxNormK, k)
		}
	}

	var in *core.Instance
	if spec != "" {
		// Cheap structural checks only — generation is deferred to
		// simSpec.materialize so a cache hit never builds the instance.
		kind, _, _ := strings.Cut(spec, ":")
		switch strings.TrimSpace(strings.ToLower(kind)) {
		case "trace", "swf", "fitted":
			return nil, opts, nil, badRequest("file-backed workload kind %q is not served; inline the jobs", kind)
		}
		if aerr := guardSpecSize(spec); aerr != nil {
			return nil, opts, nil, aerr
		}
	} else {
		if len(jobs) > MaxInlineJobs {
			return nil, opts, nil, badRequest("at most %d inline jobs, got %d", MaxInlineJobs, len(jobs))
		}
		js := make([]core.Job, len(jobs))
		for i, j := range jobs {
			js[i] = core.Job{ID: j.ID, Release: j.Release, Size: j.Size, Weight: j.Weight}
		}
		in = core.NewInstance(js)
		if err := in.Validate(); err != nil {
			return nil, opts, nil, badRequest("jobs: %v", err)
		}
	}
	opts = core.Options{Machines: machines, Speed: speed, Engine: eng, MachineModel: mm}
	return in, opts, norms, nil
}

// guardSpecSize bounds the instance size a workload spec may request
// BEFORE any generation happens: the generators allocate proportional to
// their count parameters (cascade doubles per level, rrstream multiplies
// groups×m), so post-generation checks are too late for an adversarial
// request — it would already have allocated, or panicked on a negative
// count. Keys that do not parse as integers are left for FromSpec's own
// validation.
func guardSpecSize(spec string) *apiError {
	_, rest, _ := strings.Cut(spec, ":")
	if rest == "" {
		return nil
	}
	vals := map[string]int{}
	for _, pair := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue // FromSpec rejects malformed pairs with a better message
		}
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
			vals[strings.TrimSpace(strings.ToLower(k))] = n
		}
	}
	get := func(key string, def int) int {
		if v, ok := vals[key]; ok {
			return v
		}
		return def
	}
	for _, key := range []string{"n", "m", "groups", "bursts", "size", "levels"} {
		v, ok := vals[key]
		if !ok {
			continue
		}
		if v < 0 {
			return badRequest("spec %s=%d must be non-negative", key, v)
		}
		if v > MaxSpecJobs {
			return badRequest("spec %s=%d exceeds the served limit %d", key, v, MaxSpecJobs)
		}
	}
	if l := get("levels", 8); l > 20 {
		return badRequest("spec levels=%d would generate 2^%d jobs; limit is levels ≤ 20", l, l)
	}
	if g, m := get("groups", 32), get("m", 1); g*m > MaxSpecJobs {
		return badRequest("spec groups×m = %d exceeds the served limit %d", g*m, MaxSpecJobs)
	}
	if b, s := get("bursts", 5), get("size", 10); b*s > MaxSpecJobs {
		return badRequest("spec bursts×size = %d exceeds the served limit %d", b*s, MaxSpecJobs)
	}
	return nil
}

// parseSimulate validates a SimulateRequest into a runnable simSpec.
func parseSimulate(req SimulateRequest) (*simSpec, *apiError) {
	if req.Policy == "" {
		return nil, badRequest("policy is required")
	}
	if _, err := polspec.New(req.Policy); err != nil {
		return nil, badRequest("%v", err)
	}
	in, opts, norms, aerr := validateWorkload(req.Spec, req.Seed, req.Jobs, req.Machines, req.Speed, req.MachineSpeeds, req.PreemptCost, req.Engine, req.Norms)
	if aerr != nil {
		return nil, aerr
	}
	return &simSpec{req: req, opts: opts, norms: norms, instance: in}, nil
}

// cacheKey derives the canonical cache key for a simulate request. Spec
// workloads hash (spec, seed) directly — generation is deterministic — so
// the hot path never rebuilds the instance; inline workloads hash the
// normalized instance via core.Fingerprint. Detail changes the response
// shape, so it is part of the key.
func (s *simSpec) cacheKey() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("rrserve/simulate/v1\x00"))
	h.Write([]byte(s.req.Policy))
	h.Write([]byte{0})
	if s.req.Spec != "" {
		h.Write([]byte("spec\x00"))
		h.Write([]byte(s.req.Spec))
		h.Write([]byte{0})
		u64(s.req.Seed)
		u64(uint64(int64(s.opts.Machines)))
		u64(math.Float64bits(s.opts.Speed))
		u64(uint64(int64(s.opts.Engine)))
		// Machine model: length-prefixed speeds then the preemption cost, so
		// distinct speed vectors — including prefixes of one another — can
		// never collide with each other or with the identical-machine key.
		u64(uint64(len(s.opts.MachineModel.Speeds)))
		for _, sp := range s.opts.MachineModel.Speeds {
			u64(math.Float64bits(sp))
		}
		u64(math.Float64bits(s.opts.MachineModel.PreemptCost))
	} else {
		h.Write([]byte("jobs\x00"))
		h.Write([]byte(core.Fingerprint(s.instance, s.req.Policy, s.opts)))
	}
	u64(uint64(len(s.norms)))
	for _, k := range s.norms {
		u64(uint64(int64(k)))
	}
	if s.req.Detail {
		u64(1)
	} else {
		u64(0)
	}
	// Timeline changes the response shape, so it is part of the key — a
	// timeline response must never be served from a non-timeline entry or
	// vice versa (both would violate byte-determinism).
	if s.req.Timeline {
		u64(1)
	} else {
		u64(0)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// run executes the simulation under ctx and builds the response.
func (s *simSpec) run(ctx context.Context) (*SimulateResponse, *apiError) {
	if aerr := s.materialize(); aerr != nil {
		return nil, aerr
	}
	p, err := polspec.New(s.req.Policy) // fresh instance: policies are stateful
	if err != nil {
		return nil, badRequest("%v", err)
	}
	opts := s.opts
	opts.Context = ctx
	// Timeline statistics come from a streaming observer attached to the
	// run — aggregate-only epochs, so the fast paths stay eligible and no
	// Segment timeline is ever recorded server-side.
	var tl *stats.TimelineObserver
	var obs []core.Observer
	if s.req.Timeline {
		tl = stats.NewTimelineObserver(opts.Machines)
		obs = append(obs, tl)
	}
	// Anomaly net: a per-run streaming monitor whose findings feed the
	// server's "anomalies" counter. Appended (never typed-nil) so Multi
	// elides the fan-out wrapper when only one observer is active.
	var sm *hunt.StreamMonitor
	if s.anomalies != nil {
		sm = hunt.NewStreamMonitorModel(opts.Machines, opts.Speed, opts.MachineModel)
		obs = append(obs, sm)
	}
	opts.Observer = core.Multi(obs...)
	// Pooled workspace: the run's Result is workspace-owned, and
	// buildResponse fully consumes it (norms, summary, detail copies)
	// before the deferred release — the ownership rule of DESIGN.md §12.
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	res, err := fast.RunWS(s.instance, p, opts, ws)
	if err != nil {
		return nil, mapSimError(err)
	}
	out := buildResponse(res, s.norms, s.req.Detail, opts.Engine)
	if sm != nil {
		if n := len(sm.Anomalies()); n > 0 {
			s.anomalies.Add(int64(n))
		}
	}
	if tl != nil {
		ts := tl.Stats()
		out.Timeline = &TimelineInfo{
			Start:            ts.Start,
			End:              ts.End,
			BusyTime:         ts.BusyTime,
			BusyPeriods:      ts.BusyPeriods,
			AvgAlive:         ts.AvgAlive,
			MaxAlive:         ts.MaxAlive,
			Utilization:      ts.Utilization,
			OverloadedTime:   ts.OverloadedTime,
			OverloadFraction: tl.OverloadFraction(),
		}
	}
	return out, nil
}

func buildResponse(res *core.Result, norms []int, detail bool, eng core.EngineKind) *SimulateResponse {
	sum := metrics.Summarize(res.Flow)
	out := &SimulateResponse{
		Policy:        res.Policy,
		Machines:      res.Machines,
		Speed:         res.Speed,
		MachineSpeeds: append([]float64(nil), res.MachineModel.Speeds...),
		PreemptCost:   res.MachineModel.PreemptCost,
		Engine:        eng.String(),
		N:             len(res.Jobs),
		Events:        res.Events,
		Norms:         make([]NormValue, 0, len(norms)),
		Summary: FlowSummary{
			MeanFlow: sum.MeanFlow,
			MaxFlow:  sum.MaxFlow,
			Stddev:   sum.Stddev,
			P50:      sum.P50,
			P95:      sum.P95,
			P99:      sum.P99,
			Jain:     sum.Jain,
		},
	}
	for _, k := range norms {
		// The summary already holds ℓ1–ℓ3, bit-equal to LkNorm's.
		var v float64
		switch k {
		case 1:
			v = sum.L1
		case 2:
			v = sum.L2
		case 3:
			v = sum.L3
		default:
			v = metrics.LkNorm(res.Flow, k)
		}
		out.Norms = append(out.Norms, NormValue{K: k, Value: v})
	}
	if detail {
		// Copy, not alias: res may be workspace-owned, and the response is
		// marshaled after the workspace goes back to its pool.
		out.Completions = append([]float64(nil), res.Completion...)
		out.Flows = append([]float64(nil), res.Flow...)
	}
	return out
}

// mapSimError converts an engine failure into an apiError: context expiry
// becomes 504 (the request's deadline did the canceling), anything else is
// a 500 — by construction validation already rejected every bad input we
// know how to name.
func mapSimError(err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &apiError{Status: 504, Code: "deadline_exceeded", Message: "simulation exceeded the request deadline"}
	}
	if errors.Is(err, context.Canceled) {
		return &apiError{Status: 499, Code: "canceled", Message: "request canceled by client"}
	}
	return &apiError{Status: 500, Code: "internal", Message: err.Error()}
}
