package fast

import (
	"rrnorm/internal/core"
	"rrnorm/internal/queue"
)

// Round Robin runs in O((n + completions) log alive) with incremental
// virtual-time ("fair share") accounting.
//
// Under RR every alive job accrues work at the identical rate
// ρ(t) = min{1, m/n_t}·s, so with V(t) = ∫ ρ(τ) dτ (the cumulative fair
// share) a job admitted at time t₀ with size p completes exactly when V
// reaches V(t₀) + p. Arrivals and completions are therefore the only
// events: the next completion is the smallest completion target in a
// min-heap, and between consecutive events ρ is constant, so each event
// costs O(log alive) instead of the reference engine's O(n_t) rate
// recomputation.
//
// dispatch picks one of two bulk-advance drains by sink, which produce
// byte-identical output (same floating-point expressions, same event
// counting, same heap total order — the pop sequence of a min-heap under a
// strict total order is layout-independent):
//
//   - rrMat.run (runRRMat), for a materialized result: a queue.PairHeap of
//     16-byte (target, index) items with columnar SoA side arrays,
//     iterating the normalized job slice directly (no cursor);
//   - runRRStream, for a stream: the payload-carrying queue.JobHeap, whose
//     items hold everything a completion needs, pulling arrivals from the
//     cursor with O(alive) memory.
//
// rrMat is kept beside runRRStream because it is faster where the whole
// instance is in memory: routing materialized runs through runRRStream
// cost engine-sweep about 6% rr_ns_per_job (DESIGN.md §17).
//
// The heap orders by (target, sequence number); on the materialized path
// sequence numbers equal normalized indices, so simultaneous completions
// drain in exactly the order the old index-keyed heap produced.

// rrRun is the streaming Round Robin sweep state, driven by runRRStream;
// dispatch hands a materialized run to runRRMat instead. admit/complete
// are methods on a stack-local value rather than closures so that
// workspace-reuse runs stay allocation-free (captured-variable closures
// escape to the heap).
type rrRun struct {
	cur   *core.Cursor
	sum   *core.StreamResult
	h     *queue.JobHeap
	now   float64
	V     float64 // cumulative per-job fair share
	m     int
	speed float64

	// env/hetero select the generalized fair share on uniform machines
	// (env.FairShare in place of min(1, m/alive)); the identical path keeps
	// its historical expressions verbatim.
	env    *core.MachineEnv
	hetero bool

	obs core.Observer // nil when no observer attached
	ep  *core.Epoch   // workspace-held epoch for allocation-free dispatch
}

// admit moves all jobs released by now into the heap; degenerate
// (sub-tolerance size) jobs complete at admission, mirroring core.Run.
// Each heap entry carries the job's completion target, sequence number,
// release and tolerance — everything its completion needs, so no
// full-instance side arrays exist and memory stays O(alive).
func (r *rrRun) admit() {
	for r.cur.More() && r.cur.Head().Release <= r.now {
		j, seq := r.cur.Advance()
		if r.obs != nil {
			r.obs.ObserveArrival(r.now, seq, j)
		}
		tol := core.CompletionTol(j.Size)
		if j.Size <= tol {
			r.finish(seq, j.Release, r.now)
			continue
		}
		r.h.Push(queue.JobItem{Key: r.V + j.Size, Seq: seq, Release: j.Release, Tol: tol})
	}
}

// complete pops every job whose remaining work target−V is within its
// completion tolerance — the same boundary-check semantics as the
// reference engine applies at the end of each step.
func (r *rrRun) complete() {
	for r.h.Len() > 0 {
		it := r.h.Min()
		if it.Key-r.V > it.Tol {
			return
		}
		r.h.PopMin()
		r.finish(it.Seq, it.Release, r.now)
	}
}

// finish records one completion into the stream summary.
func (r *rrRun) finish(seq int, release, t float64) {
	flow := t - release
	r.sum.Completed++
	if t > r.sum.Makespan {
		r.sum.Makespan = t
	}
	if flow > r.sum.MaxFlow {
		r.sum.MaxFlow = flow
	}
	if r.obs != nil {
		r.obs.ObserveCompletion(t, seq, flow)
	}
}

// epoch emits the rate-constant interval [r.now, end) to the observer.
func (r *rrRun) epoch(end float64) {
	alive := r.h.Len()
	emitEpoch(r.obs, r.ep, r.now, end, alive, r.rateSum(alive))
}

// rateSum is an epoch's pre-speed rate sum. Under RR every alive job
// shares min(1, m/alive) of a machine, so the sum is min(alive, m); on
// uniform machines it is alive·FairShare(alive) (env.RRSum).
func (r *rrRun) rateSum(alive int) float64 {
	if r.hetero {
		return r.env.RRSum(alive)
	}
	return identicalRateSum(alive, r.m)
}

// rrMat is the batched materialized RR sweep: per-job state lives in
// columnar structure-of-arrays form — the completion target inside the
// 16-byte (key, id) PairHeap items (remaining work is target−V), and the
// interleaved {release, tolerance} column on the scratch, indexed by the
// normalized job index — so the drain loop touches flat float64 pairs
// instead of 32-byte Job structs. Methods on a struct, not closures, for
// the same no-escape/no-alloc reason as rrRun.
type rrMat struct {
	res   *core.Result
	jobs  []core.Job
	h     *queue.PairHeap
	rt    [][2]float64 // {release, core.CompletionTol} column, written at admission, read at completion
	ratio *[rateTabSize]float64
	i     int // next arrival: index into jobs == sequence number
	now   float64
	V     float64
	m     int
	speed float64

	// shares/env/hetero are the heterogeneous-model rate source: under
	// explicit machine speeds rate = speed·shares[alive] for every alive
	// count (table entries are exactly env.FairShare bits; counts beyond the
	// table fall back to the inline call). nil/false on the default model,
	// whose expressions below are untouched.
	shares *[rateTabSize]float64
	env    *core.MachineEnv
	hetero bool

	obs core.Observer
	ep  *core.Epoch
}

// rateSum is the epoch rate-sum helper (identical min(alive, m) or the
// generalized alive·FairShare(alive)).
func (r *rrMat) rateSum(alive int) float64 {
	if r.hetero {
		return r.env.RRSum(alive)
	}
	return identicalRateSum(alive, r.m)
}

// finish records one completion into the materialized result.
func (r *rrMat) finish(seq int, release, t float64) {
	flow := t - release
	r.res.Completion[seq] = t
	r.res.Flow[seq] = flow
	if r.obs != nil {
		r.obs.ObserveCompletion(t, seq, flow)
	}
}

// admit moves all jobs released by now into the heap, filling the SoA
// columns; degenerate jobs complete at admission, as in rrRun.admit.
func (r *rrMat) admit() {
	jobs := r.jobs
	for r.i < len(jobs) && jobs[r.i].Release <= r.now {
		seq := r.i
		j := jobs[seq]
		r.i++
		if r.obs != nil {
			r.obs.ObserveArrival(r.now, seq, j)
		}
		tolJ := core.CompletionTol(j.Size)
		if j.Size <= tolJ {
			r.finish(seq, j.Release, r.now)
			continue
		}
		r.rt[seq] = [2]float64{j.Release, tolJ}
		r.h.Push(seq, r.V+j.Size)
	}
}

// complete pops every job within completion tolerance of the current fair
// share, exactly as rrRun.complete.
func (r *rrMat) complete() {
	h := r.h
	for h.Len() > 0 {
		id, key := h.Min()
		if key-r.V > r.rt[id][1] {
			return
		}
		h.PopMin()
		r.finish(id, r.rt[id][0], r.now)
	}
}

// run is the bulk-advance event loop: an outer sweep over arrival groups
// and idle gaps with an inner drain that pops the whole run of jobs
// completing before the next arrival in one pass over the heap, stamping
// completion times analytically (V lands exactly on each popped target).
// Event counting, context polling, floating-point expressions and epoch
// emission are runRRStream's; TestStreamingWall* in internal/check holds
// the two sinks byte-identical. When every attached observer is
// epoch-blind (core.ObserverCoarseEpochsOK) the loop emits no epochs.
func (r *rrMat) run(opts core.Options) error {
	jobs := r.jobs
	n := len(jobs)
	r.now = jobs[0].Release
	r.admit()
	r.complete()
	events := 1
	h := r.h
	m, speed := r.m, r.speed
	ratio := r.ratio
	hetero, shares := r.hetero, r.shares
	rt := r.rt
	res, obs := r.res, r.obs
	epochs := !core.ObserverCoarseEpochsOK(obs)
	for {
		hasA := r.i < n
		var tA float64
		if hasA {
			tA = jobs[r.i].Release
		}
		// Drain: completion events, interleaved with the arrivals that
		// beat them, until the heap empties.
		for h.Len() > 0 {
			alive := h.Len()
			// rate = speed · min(1, m/alive); the m/alive quotient comes
			// from the scratch's bit-exact table (see rateRatios) — a load
			// in place of a hardware divide on the critical path. Under a
			// heterogeneous model the share table generalizes to
			// env.FairShare(alive) for every alive count (see fairShares).
			rate := speed
			if hetero {
				if alive < rateTabSize {
					rate = speed * shares[alive]
				} else {
					rate = speed * r.env.FairShare(alive)
				}
			} else if alive > m {
				if alive < rateTabSize {
					rate *= ratio[alive]
				} else {
					rate *= float64(m) / float64(alive)
				}
			}
			_, minKey := h.Min()
			tC := r.now + (minKey-r.V)/rate
			if tC < r.now {
				tC = r.now // guard against cancellation in minKey−V
			}
			if hasA && tA < tC {
				// Next event is an arrival: advance the fair share to it.
				events++
				if events&(ctxStride-1) == 0 {
					if err := core.Canceled(opts.Context, r.now, events); err != nil {
						return err
					}
				}
				if epochs {
					emitEpoch(r.obs, r.ep, r.now, tA, alive, r.rateSum(alive))
				}
				r.V += (tA - r.now) * rate
				r.now = tA
				r.admit()
				// Inlined complete(): the compiler declines both it and
				// finish (inline budget), and this loop runs once per
				// arrival — the call overhead alone is measurable at n=10⁷.
				// Identical expressions, so the pop sequence and stamped
				// times are bit-for-bit those of complete().
				for h.Len() > 0 {
					id, key := h.Min()
					if key-r.V > rt[id][1] {
						break
					}
					h.PopMin()
					flow := r.now - rt[id][0]
					res.Completion[id] = r.now
					res.Flow[id] = flow
					if obs != nil {
						obs.ObserveCompletion(r.now, id, flow)
					}
				}
				hasA = r.i < n
				if hasA {
					tA = jobs[r.i].Release
				}
				continue
			}
			// Next event is a completion: land V exactly on the target so
			// simultaneous completions (identical targets) drain together.
			events++
			if events&(ctxStride-1) == 0 {
				if err := core.Canceled(opts.Context, r.now, events); err != nil {
					return err
				}
			}
			if epochs {
				emitEpoch(r.obs, r.ep, r.now, tC, alive, r.rateSum(alive))
			}
			r.V = minKey
			r.now = tC
			// Inlined complete(): V landed exactly on minKey, so the top
			// entry qualifies unconditionally (key−V = 0, tolerances are
			// strictly positive) — pop first, then drain the rest of the
			// simultaneous-completion group.
			id, _ := h.PopMin()
			flow := tC - rt[id][0]
			res.Completion[id] = tC
			res.Flow[id] = flow
			if obs != nil {
				obs.ObserveCompletion(tC, id, flow)
			}
			for h.Len() > 0 {
				id, key := h.Min()
				if key-minKey > rt[id][1] {
					break
				}
				h.PopMin()
				flow := tC - rt[id][0]
				res.Completion[id] = tC
				res.Flow[id] = flow
				if obs != nil {
					obs.ObserveCompletion(tC, id, flow)
				}
			}
		}
		if !hasA {
			break
		}
		// Idle gap: jump to the next arrival; V does not advance.
		events++
		if events&(ctxStride-1) == 0 {
			if err := core.Canceled(opts.Context, r.now, events); err != nil {
				return err
			}
		}
		r.now = tA
		r.admit()
		r.complete()
	}
	r.res.Events = events
	return nil
}

// runRRMat prepares and runs the batched materialized sweep: the heap and
// SoA columns come from the scratch (grown once, reused run after run), so
// steady-state runs allocate nothing. s.env holds opts' machine environment.
func runRRMat(res *core.Result, opts core.Options, s *scratch) error {
	n := len(res.Jobs)
	if n == 0 {
		return nil
	}
	s.rrPair.Reuse(0) // capacity tracks the peak alive set
	mr := rrMat{
		res:    res,
		jobs:   res.Jobs,
		h:      &s.rrPair,
		rt:     sizedPairs(&s.soaRelTol, n),
		m:      opts.Machines,
		speed:  opts.Speed,
		env:    &s.env,
		hetero: !s.env.Identical(),
		obs:    opts.Observer,
		ep:     &s.epoch,
	}
	if mr.hetero {
		mr.shares = (*[rateTabSize]float64)(s.fairShares(mr.env))
	} else {
		mr.ratio = (*[rateTabSize]float64)(s.rateRatios(mr.m))
	}
	return mr.run(opts)
}

// runRRStream is the batched streaming sweep: the same bulk-advance drain
// as rrMat.run over the payload-carrying JobHeap, with arrivals pulled
// from the cursor (one-job lookahead, O(alive) memory). The next arrival
// time is hoisted per drain — the cursor cannot change while completions
// pop — so the drain touches no cursor state at all.
func runRRStream(r *rrRun, opts core.Options, s *scratch) error {
	cur := r.cur
	if !cur.More() {
		return cur.Err()
	}
	r.h.Reuse(0) // capacity tracks the peak alive set, not the stream length
	r.now = cur.Head().Release
	r.admit()
	r.complete()
	events := 1
	h := r.h
	m, speed := r.m, r.speed
	hetero := r.hetero
	var ratio, shares *[rateTabSize]float64
	if hetero {
		shares = (*[rateTabSize]float64)(s.fairShares(r.env))
	} else {
		ratio = (*[rateTabSize]float64)(s.rateRatios(m))
	}
	epochs := !core.ObserverCoarseEpochsOK(r.obs)
	for {
		hasA := cur.More()
		if err := cur.Err(); err != nil {
			return err
		}
		var tA float64
		if hasA {
			tA = cur.Head().Release
		}
		for h.Len() > 0 {
			alive := h.Len()
			rate := speed
			if hetero {
				if alive < rateTabSize {
					rate = speed * shares[alive]
				} else {
					rate = speed * r.env.FairShare(alive)
				}
			} else if alive > m {
				if alive < rateTabSize {
					rate *= ratio[alive]
				} else {
					rate *= float64(m) / float64(alive)
				}
			}
			minKey := h.Min().Key
			tC := r.now + (minKey-r.V)/rate
			if tC < r.now {
				tC = r.now
			}
			if hasA && tA < tC {
				events++
				if events&(ctxStride-1) == 0 {
					if err := core.Canceled(opts.Context, r.now, events); err != nil {
						return err
					}
				}
				if epochs {
					r.epoch(tA)
				}
				r.V += (tA - r.now) * rate
				r.now = tA
				r.admit()
				r.complete()
				hasA = cur.More()
				if err := cur.Err(); err != nil {
					return err
				}
				if hasA {
					tA = cur.Head().Release
				}
				continue
			}
			events++
			if events&(ctxStride-1) == 0 {
				if err := core.Canceled(opts.Context, r.now, events); err != nil {
					return err
				}
			}
			if epochs {
				r.epoch(tC)
			}
			r.V = minKey
			r.now = tC
			// Inlined complete(), as in rrMat.run: the top entry's key is
			// exactly V, so it pops unconditionally before the group drain.
			it := h.PopMin()
			r.finish(it.Seq, it.Release, tC)
			for h.Len() > 0 {
				it = h.Min()
				if it.Key-minKey > it.Tol {
					break
				}
				h.PopMin()
				r.finish(it.Seq, it.Release, tC)
			}
		}
		if !hasA {
			break
		}
		events++
		if events&(ctxStride-1) == 0 {
			if err := core.Canceled(opts.Context, r.now, events); err != nil {
				return err
			}
		}
		r.now = tA
		r.admit()
		r.complete()
	}
	r.sum.Events = events
	return cur.Err()
}
