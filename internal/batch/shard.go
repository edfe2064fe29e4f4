package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/par"
	"rrnorm/internal/policy"
)

// Sharded execution: the immediate-dispatch decomposition of an m-machine
// run into m independent single-machine runs.
//
// Jobs are assigned to machines by their normalized arrival rank: the job
// at global normalized index g runs on machine g mod m, and each machine
// schedules its own jobs under the per-machine policy at Machines = 1.
// This is a well-defined scheduling discipline in its own right —
// round-robin immediate dispatch — and NOT the same discipline as the
// global policy on m machines: global SRPT picks the m best alive jobs
// across the whole queue at every instant, while a sharded run never
// migrates a job off the machine its arrival rank assigned. Results carry
// the policy name with a "+shard" suffix so the two are never conflated.
//
// What sharding buys is independence: the m per-machine runs share no
// state, so they execute on a worker pool in any interleaving and the
// merged output is byte-identical at every worker count —
//
//   - per-job outputs are written at disjoint global indices
//     (shard s, local index l ↔ g = s + l·m, a bijection),
//   - scalar aggregates (event counts, per-shard observer folds such as
//     metrics.StreamNorm.Merge) are reduced in shard order after every
//     shard has finished,
//
// which makes the sharded path the scale-out story for the bench grid:
// n = 10⁸ total jobs is m independent n/m runs, each within one
// workspace's memory.

// ErrNotShardable reports a policy whose m-machine schedule cannot be
// decomposed into per-machine runs by this runner.
var ErrNotShardable = errors.New("batch: policy not shardable")

// Shardable reports whether RunSharded accepts the named policy. The
// per-machine runs replay each shard under the policy at Machines = 1, so
// the policy must be one whose single-machine schedule depends only on the
// jobs of that machine — true for the index policies SRPT, SJF and FCFS,
// false for the fair-share family (RR, WRR, LAPS, SETF, MLFQ), whose
// per-job rates couple every alive job across machines.
func Shardable(policyName string) bool {
	switch policyName {
	case "SRPT", "SJF", "FCFS":
		return true
	}
	return false
}

// ShardOf returns the machine the job at global normalized index g runs
// on, and LocalIndex its index within that shard — the assignment bijection
// fixed by the discipline (g mod m, g div m). Exported so tests and tools
// can recompute the mapping instead of hard-coding it.
func ShardOf(g, m int) int { return g % m }

// LocalIndex returns the shard-local normalized index of global index g.
func LocalIndex(g, m int) int { return g / m }

// shardScratch is the pooled partition state of one RunSharded call: the
// shard-contiguous regrouping of the normalized jobs, the shard offsets
// and the per-shard event counts. Pooled (not workspace-attached) because
// core.Workspace.EngineScratch is owned by the fast engine.
type shardScratch struct {
	jobs   []core.Job
	off    []int
	ins    []core.Instance
	events []int
}

var shardPool = &sync.Pool{New: func() any { return &shardScratch{} }}

// Reset drops the job-slice references (sc.ins aliases sc.jobs) before the
// scratch returns to the pool; the flat buffers themselves are the reuse.
func (sc *shardScratch) Reset() { sc.ins = sc.ins[:0] }

// RunSharded runs the named policy on in as m = opts.Machines independent
// single-machine shards (see the package comment above for the discipline)
// over a bounded worker pool, and merges the shard outputs into one
// result: Completion/Flow in global normalized order, Events the sum of
// the shard event counts, Policy the policy name with "+shard" appended.
//
// obsFor, when non-nil, supplies the observer attached to shard s's run —
// the hook for per-shard streaming folds (attach one metrics.StreamNorm
// per shard, then Merge them in shard order). It is called once per shard,
// in shard order, before any shard runs; the returned observers' callbacks
// fire concurrently across shards (never within one), so distinct shards
// must get distinct observer values. Options.Observer must be nil: a
// single observer cannot see a coherent interleaved event stream.
//
// ws follows fast.RunWS's reuse rules: the returned result is owned by ws
// (consume or Clone it before the next run on ws). Worker workspaces for
// the shard runs come from the process pool. workers ≤ 0 means GOMAXPROCS;
// the merged result is byte-identical at every worker count. MaxEvents,
// Speed and Engine apply per shard.
func RunSharded(ctx context.Context, in *core.Instance, policyName string, opts core.Options, workers int, ws *core.Workspace, obsFor func(shard int) core.Observer) (*core.Result, error) {
	if !Shardable(policyName) {
		return nil, fmt.Errorf("%w: %s (want SRPT, SJF or FCFS)", ErrNotShardable, policyName)
	}
	m := opts.Machines
	if m < 1 {
		return nil, fmt.Errorf("%w: Machines=%d", core.ErrBadOptions, m)
	}
	if !(opts.Speed > 0) || math.IsInf(opts.Speed, 0) {
		return nil, fmt.Errorf("%w: Speed=%v", core.ErrBadOptions, opts.Speed)
	}
	if opts.Observer != nil {
		return nil, fmt.Errorf("%w: sharded runs take per-shard observers via obsFor, not Options.Observer", core.ErrBadOptions)
	}
	if ws == nil {
		ws = core.NewWorkspace()
	}
	// StartRun validates and normalizes once, globally, and provides the
	// merged result's workspace-owned arrays.
	res, err := ws.StartRun(in, policyName+"+shard", opts)
	if err != nil {
		return nil, err
	}
	n := len(res.Jobs)
	if n == 0 {
		return res, nil
	}

	sc := shardPool.Get().(*shardScratch)
	defer func() {
		sc.Reset()
		shardPool.Put(sc)
	}()
	sc.jobs = growJobs(sc.jobs, n)
	sc.off = growInts(sc.off, m+1)
	sc.events = growInts(sc.events, m)
	// Shard s holds global indices {s, s+m, s+2m, …}: ⌈(n−s)/m⌉ jobs,
	// regrouped contiguously so each shard run sweeps a dense slice. The
	// subsequence of a (Release, ID)-sorted slice is itself sorted, so the
	// per-shard instances are already normalized and StartRun's sortedness
	// probe keeps them unsorted.
	sc.off[0] = 0
	for s := 0; s < m; s++ {
		sc.off[s+1] = sc.off[s] + (n-s+m-1)/m
	}
	for g := 0; g < n; g++ {
		sc.jobs[sc.off[g%m]+g/m] = res.Jobs[g]
	}
	if cap(sc.ins) < m {
		sc.ins = make([]core.Instance, m)
	}
	sc.ins = sc.ins[:m]
	for s := 0; s < m; s++ {
		sc.ins[s] = core.Instance{Jobs: sc.jobs[sc.off[s]:sc.off[s+1]]}
	}

	workers = par.WorkerCount(m, workers)
	wss := make([]*core.Workspace, workers)
	defer func() {
		for _, w := range wss {
			if w != nil {
				core.PutWorkspace(w)
			}
		}
	}()
	// Observers are created up front, in shard order, so obsFor sees a
	// deterministic call sequence regardless of worker scheduling.
	var obses []core.Observer
	if obsFor != nil {
		obses = make([]core.Observer, m)
		for s := 0; s < m; s++ {
			obses[s] = obsFor(s)
		}
	}
	err = par.ForEachWorkerCtx(ctx, m, workers, func(ctx context.Context, w, s int) error {
		wsw := wss[w]
		if wsw == nil {
			wsw = core.GetWorkspace()
			wss[w] = wsw
		}
		p, err := policy.New(policyName)
		if err != nil {
			return err
		}
		sOpts := opts
		sOpts.Machines = 1
		if sOpts.Context == nil {
			sOpts.Context = ctx
		}
		if obses != nil {
			sOpts.Observer = obses[s]
		}
		sRes, err := fast.RunWS(&sc.ins[s], p, sOpts, wsw)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		scatterShard(res, sRes, s, m)
		sc.events[s] = sRes.Events
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Events = 0
	for s := 0; s < m; s++ {
		res.Events += sc.events[s]
	}
	return res, nil
}

// scatterShard merges one finished shard into the global result: shard s's
// local outputs land at their global normalized indices through the
// assignment bijection g = s + l·m. Shards write disjoint index sets, so
// the concurrent calls from the worker pool never conflict.
func scatterShard(res, sRes *core.Result, s, m int) {
	for l, t := range sRes.Completion {
		g := s + l*m
		res.Completion[g] = t
		res.Flow[g] = sRes.Flow[l]
	}
}

// growJobs and growInts are the no-clear sizing idiom for the pooled
// partition buffers — every entry is written before any read.
func growJobs(s []core.Job, n int) []core.Job {
	if cap(s) < n {
		return make([]core.Job, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
