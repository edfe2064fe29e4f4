package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Workspace is pooled scratch for the simulation engines: the result
// slices, the normalized job copy, the validation buffer and the per-step
// buffers the reference engine otherwise rebuilds every run. Threaded
// through RunWS (and fast.RunWS) it makes the steady-state hot path
// allocation-free: every buffer is grown once and reused run after run, so
// a sweep of thousands of simulations costs the allocator nothing after
// warm-up.
//
// Ownership rule (DESIGN.md §12): the *Result returned by a run that was
// given a workspace — and every slice it references — is owned by that
// workspace. Consume it (compute norms, marshal it, copy fields out) or
// deep-copy it with Result.Clone before the workspace's next run, Reset,
// or release back to a pool.
//
// A Workspace is not safe for concurrent use; use one per goroutine. The
// batch layer (internal/batch) keeps one per worker.
type Workspace struct {
	res        Result
	jobs       []Job
	completion []float64
	flow       []float64

	// idpairs is validation scratch: (ID, index) pairs sorted by ID for
	// duplicate detection without the map Instance.Validate allocates.
	// stamp/epoch are the O(n) fast path for the common dense-ID case:
	// stamp[id-minID] == epoch marks an ID as seen this validation, so no
	// sort (and no clearing — the epoch bump invalidates old marks).
	idpairs []idPair
	stamp   []int
	epoch   int

	// Reference-engine per-step scratch (see refScratch).
	ref refScratch

	// obsEpoch is the single Epoch value reused for every ObserveEpoch
	// callback. Living on the workspace (not the engine's stack) keeps the
	// observer dispatch allocation-free: a stack Epoch whose address
	// reaches an interface call would escape and cost one heap allocation
	// per run even with no observer attached.
	obsEpoch Epoch

	// engine is opaque scratch owned by an alternative engine
	// (internal/fast); see EngineScratch.
	engine any
}

type idPair struct{ id, idx int }

// refScratch is the reference engine's per-step state: the compacted alive
// set (parallel arrays of sequence number, job value and elapsed work —
// O(peak alive) memory, which is what lets runReference consume an
// unbounded JobSource) plus the per-step view/rate buffers. Capacity grows
// by append on first use and is reused run after run.
type refScratch struct {
	aliveSeq  []int     // arrival sequence numbers, in (Release, ID) order
	aliveJob  []Job     // job values aligned with aliveSeq
	aliveEl   []float64 // elapsed work aligned with aliveSeq
	alivePrev []float64 // previous-step rates (preempt-cost tracking; only when PreemptCost > 0)
	views     []JobView
	rates     []float64
	rateSort  []float64  // checkRatesUniform's sort buffer (heterogeneous models only)
	env       MachineEnv // the run's machine environment, rebuilt each run on reused buffers
}

func (r *refScratch) reset() {
	r.aliveSeq = r.aliveSeq[:0]
	r.aliveJob = r.aliveJob[:0]
	r.aliveEl = r.aliveEl[:0]
	r.alivePrev = r.alivePrev[:0]
	r.views = r.views[:0]
	r.rates = r.rates[:0]
	r.rateSort = r.rateSort[:0]
}

// NewWorkspace returns an empty workspace; buffers are grown on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset truncates every buffer (keeping capacity) and drops the references
// the workspace holds into the last run's result, so a pooled workspace
// never pins job or segment memory from an old run. PutWorkspace calls it;
// call it yourself before handing a workspace to any other pool.
func (w *Workspace) Reset() {
	w.res = Result{}
	w.jobs = w.jobs[:0]
	w.completion = w.completion[:0]
	w.flow = w.flow[:0]
	w.idpairs = w.idpairs[:0]
	w.ref.reset()
	w.obsEpoch = Epoch{}
	if r, ok := w.engine.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// ObserveStreamDone emits the end-of-run callback for a streaming run:
// obs.ObserveDone receives the workspace's reusable Result carrying the
// run's scalar fields (Policy, Machines, Speed, Events) with nil per-job
// slices — stream mode exists to avoid materializing those, and stream-safe
// observers (StreamNorm, the trace writer) track per-job state themselves
// from the event stream. Using the workspace's Result keeps the dispatch
// allocation-free. Both engines' stream paths call it; a nil obs is a
// no-op.
func (w *Workspace) ObserveStreamDone(obs Observer, sum *StreamResult) {
	if obs == nil {
		return
	}
	w.res = Result{
		Policy:       sum.Policy,
		Machines:     sum.Machines,
		Speed:        sum.Speed,
		MachineModel: sum.MachineModel,
		Events:       sum.Events,
	}
	obs.ObserveDone(&w.res)
}

// EngineScratch returns the scratch value a non-reference engine attached
// with SetEngineScratch (nil if none). The fast engine keeps its own
// reusable state (heaps, key arrays) on the workspace this way, without
// core knowing its shape.
func (w *Workspace) EngineScratch() any { return w.engine }

// SetEngineScratch attaches engine-owned scratch to the workspace. If the
// value has a Reset method, Workspace.Reset invokes it.
func (w *Workspace) SetEngineScratch(s any) { w.engine = s }

// wsPool is the process-wide pool behind GetWorkspace/PutWorkspace.
var wsPool = &sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace takes a workspace from the process-wide pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace resets w and returns it to the pool. Neither w nor any
// Result produced with it may be used after the call.
func PutWorkspace(w *Workspace) {
	w.Reset()
	wsPool.Put(w)
}

// StartRun validates in and prepares the workspace's reusable Result for a
// run: Result.Jobs is a workspace-owned normalized copy of in.Jobs, and
// Completion/Flow are zeroed to length n. Both engines call it; the
// returned pointer is to workspace-owned memory (see the type comment for
// the ownership rule). The caller's instance is never modified.
func (w *Workspace) StartRun(in *Instance, policyName string, opts Options) (*Result, error) {
	n := len(in.Jobs)
	if cap(w.jobs) < n {
		w.jobs = make([]Job, n)
	}
	w.jobs = w.jobs[:n]
	// One fused pass replaces what used to be five over the instance —
	// copy, per-job scalar validation, duplicate-ID min/max scan,
	// sortedness probe — which at n=10⁷ is the difference between
	// streaming 0.3 GB and 1.5 GB through memory before the engine even
	// starts. The pass also detects strictly increasing IDs in one
	// comparison per job: every workload generator numbers jobs that way,
	// and strictly increasing IDs cannot contain a duplicate, so the
	// common case skips the stamp/sort duplicate scan entirely.
	scalarIdx := -1
	var scalarErr error
	sorted := true
	idsIncreasing := true
	var minID, maxID int
	if n > 0 {
		minID, maxID = in.Jobs[0].ID, in.Jobs[0].ID
	}
	for i := range in.Jobs {
		j := &in.Jobs[i]
		w.jobs[i] = *j
		if scalarIdx < 0 {
			switch {
			case !(j.Size >= 0) || math.IsInf(j.Size, 0):
				scalarErr = fmt.Errorf("%w: job %d has negative or non-finite size %v", ErrInvalidInstance, j.ID, j.Size)
				scalarIdx = i
			case j.Release < 0 || math.IsInf(j.Release, 0) || math.IsNaN(j.Release):
				scalarErr = fmt.Errorf("%w: job %d has invalid release %v", ErrInvalidInstance, j.ID, j.Release)
				scalarIdx = i
			case j.Weight < 0 || math.IsInf(j.Weight, 0) || math.IsNaN(j.Weight):
				scalarErr = fmt.Errorf("%w: job %d has invalid weight %v", ErrInvalidInstance, j.ID, j.Weight)
				scalarIdx = i
			}
		}
		if i > 0 {
			p := &in.Jobs[i-1]
			if j.ID <= p.ID {
				idsIncreasing = false
				if j.ID < minID {
					minID = j.ID
				}
			} else if j.ID > maxID {
				maxID = j.ID
			}
			if c := cmp.Compare(j.Release, p.Release); c < 0 || (c == 0 && j.ID < p.ID) {
				sorted = false
			}
		}
	}
	dupIdx := -1
	if !idsIncreasing {
		dupIdx = w.firstDuplicate(in.Jobs, minID, maxID)
	}
	// Validate checks duplicates before the scalar fields at each index,
	// so a duplicate at the same index as a scalar failure wins.
	if dupIdx >= 0 && (scalarIdx < 0 || dupIdx <= scalarIdx) {
		return nil, fmt.Errorf("%w: duplicate job ID %d (index %d)", ErrInvalidInstance, in.Jobs[dupIdx].ID, dupIdx)
	}
	if scalarErr != nil {
		return nil, scalarErr
	}
	if !sorted {
		slices.SortFunc(w.jobs, compareJobs)
	}
	// Completion/Flow skip grow's zeroing: every successful run writes all
	// n entries — a run only returns without error once every job has
	// completed (degenerate jobs at admission, the rest at their targets;
	// a policy that starves a job exhausts the event budget and errors) —
	// and an errored run's result is never surfaced. At n = 10⁷ the two
	// clears would stream 160 MB through memory per run for nothing.
	w.completion = sized(w.completion, n)
	w.flow = sized(w.flow, n)
	w.res = Result{
		Policy:       policyName,
		Machines:     opts.Machines,
		Speed:        opts.Speed,
		MachineModel: opts.MachineModel,
		Jobs:         w.jobs,
		Completion:   w.completion,
		Flow:         w.flow,
	}
	return &w.res, nil
}

// compareJobs is the (Release, ID) normalization order shared with
// Instance.Normalize. IDs are unique in a valid instance, so the order is
// total and the sort is deterministic.
func compareJobs(a, b Job) int {
	if c := cmp.Compare(a.Release, b.Release); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func compareIDPairs(a, b idPair) int {
	if c := cmp.Compare(a.id, b.id); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// firstDuplicate returns the smallest index whose ID already occurred
// earlier in jobs, or -1 — exactly where Instance.Validate's map scan
// would fire, so StartRun reports Validate's exact message and callers
// cannot tell the implementations apart. minID/maxID are the ID extrema
// StartRun's fused pass already computed. When the ID range is at most a
// small multiple of n (true for every workload generator, which numbers
// jobs 0..n−1) it runs in O(n) against the epoch-stamped scratch array;
// otherwise it falls back to sorting (ID, index) pairs.
func (w *Workspace) firstDuplicate(jobs []Job, minID, maxID int) int {
	n := len(jobs)
	if n == 0 {
		return -1
	}
	// span stays in int: overflow makes it negative and takes the sort path.
	if span := maxID - minID; span >= 0 && span < 4*n {
		span++
		if cap(w.stamp) < span {
			w.stamp = make([]int, span)
		}
		w.stamp = w.stamp[:span]
		w.epoch++ // marks from earlier validations become stale, no clear needed
		for i := 0; i < n; i++ {
			off := jobs[i].ID - minID
			if w.stamp[off] == w.epoch {
				return i
			}
			w.stamp[off] = w.epoch
		}
		return -1
	}
	w.idpairs = grow(w.idpairs, n)
	for i, j := range jobs {
		w.idpairs[i] = idPair{id: j.ID, idx: i}
	}
	slices.SortFunc(w.idpairs, compareIDPairs)
	// Within a run of equal IDs the smallest non-first index is the point
	// at which Validate's map scan would fire; take the minimum over all
	// runs to match it exactly.
	dupIdx := -1
	for i := 1; i < len(w.idpairs); i++ {
		if w.idpairs[i].id == w.idpairs[i-1].id {
			if second := w.idpairs[i].idx; dupIdx < 0 || second < dupIdx {
				dupIdx = second
			}
		}
	}
	return dupIdx
}

// grow returns s resized to length n and zeroed, reallocating only when
// capacity is insufficient — the workspace's one buffer-management idiom.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// sized is grow without the zeroing, for buffers whose every entry is
// written before any read (see the StartRun completion/flow comment).
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Clone returns a deep copy of the result sharing no memory with r — the
// way to keep a workspace-owned result past the workspace's release.
func (r *Result) Clone() *Result {
	out := *r
	out.MachineModel = r.MachineModel.Clone()
	out.Jobs = append([]Job(nil), r.Jobs...)
	out.Completion = append([]float64(nil), r.Completion...)
	out.Flow = append([]float64(nil), r.Flow...)
	return &out
}
