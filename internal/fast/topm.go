package fast

import (
	"math"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
)

// runTopM simulates the rank-based policies — the ones whose reference
// implementation assigns a full machine to each of the m best alive jobs
// under a strict order (SRPT, SJF, FCFS, StaticPriority) — in
// O((n + completions) log alive).
//
// State: at any moment at most m jobs are "running" (each on a dedicated
// speed-s machine) and the rest wait. Because every running job drains at
// the same rate s, the order of running jobs by remaining work never
// changes while they run; each running job is represented by cAt, its
// absolute completion time if never preempted, and a waiting job by rem,
// its (frozen) remaining work. The only events are arrivals — which start
// on a free machine, preempt the worst running job, or queue — and
// completions — which promote the best waiting job. Three indexed heaps
// (next completion, preemption victim, promotion candidate) make every
// event O(log alive).
//
// Alive jobs live in scratch slots allocated at admission and freed at
// completion (see scratch), pulled incrementally from a core.Cursor, so
// the same loop serves materialized instances and unbounded job streams;
// the policy order's tie-break is the arrival sequence number, which on
// the materialized path equals the normalized index — the reference
// engine's (key, Release, ID) tie-break exactly.
//
// Correctness relies on the invariant that every running job precedes every
// waiting job in the policy order. It holds because keys are static (or,
// for SRPT, only ever improve while running): a preemption victim was the
// worst running job and by induction precedes all waiting jobs, and an
// arrival beats the victim only if it precedes it. The running set is
// therefore always exactly the reference engine's top-m selection.

// ordKind selects how an ordering ranks jobs.
type ordKind uint8

const (
	// ordStatic ranks by a fixed per-slot key with the arrival-sequence
	// tie-break (sequence order is (Release, ID) order, the reference
	// tie-break). With useKey false the order is pure sequence — FCFS.
	ordStatic ordKind = iota
	// ordSRPT ranks by remaining work: frozen rem for waiting jobs,
	// cAt-implied for running ones (equal drain rate ⇒ cAt order is
	// remaining order).
	ordSRPT
)

// ordering ranks slots for the top-m engine. It reads the slot arrays
// through the scratch pointer — not captured slices — so slot growth never
// leaves it stale, and it is a concrete struct with methods rather than a
// set of closures so workspace reuse stays allocation-free.
type ordering struct {
	kind   ordKind
	useKey bool // rank by s.key (SJF, StaticPriority) before the tie-break
	s      *scratch
	speed  float64
}

func (o *ordering) keyOf(sl int) float64 {
	if !o.useKey {
		return 0
	}
	return o.s.key[sl]
}

// waitLess orders waiting slots: the least is promoted first.
func (o *ordering) waitLess(a, b int) bool {
	if o.kind == ordSRPT {
		if o.s.rem[a] != o.s.rem[b] {
			return o.s.rem[a] < o.s.rem[b]
		}
		return o.s.seq[a] < o.s.seq[b]
	}
	if ka, kb := o.keyOf(a), o.keyOf(b); ka != kb {
		return ka < kb
	}
	return o.s.seq[a] < o.s.seq[b]
}

// worstLess orders running slots so the heap minimum is the preemption
// victim (i.e. it sorts "worse" jobs first).
func (o *ordering) worstLess(a, b int) bool {
	if o.kind == ordSRPT {
		if o.s.cAt[a] != o.s.cAt[b] {
			return o.s.cAt[a] > o.s.cAt[b]
		}
		return o.s.seq[a] > o.s.seq[b]
	}
	if ka, kb := o.keyOf(a), o.keyOf(b); ka != kb {
		return ka > kb
	}
	return o.s.seq[a] > o.s.seq[b]
}

// byCLess orders running slots by next completion.
func (o *ordering) byCLess(a, b int) bool {
	if o.s.cAt[a] != o.s.cAt[b] {
		return o.s.cAt[a] < o.s.cAt[b]
	}
	return o.s.seq[a] < o.s.seq[b]
}

// preempts reports whether a newly arrived job — static key jKey, remaining
// work jRem (its full size at arrival) and sequence number jSeq, not yet
// slotted — displaces the running victim slot v at time now.
func (o *ordering) preempts(jKey, jRem float64, jSeq, v int, now float64) bool {
	if o.kind == ordSRPT {
		remV := (o.s.cAt[v] - now) * o.speed
		if jRem != remV {
			return jRem < remV
		}
		return jSeq < o.s.seq[v]
	}
	if kv := o.keyOf(v); jKey != kv {
		return jKey < kv
	}
	return jSeq < o.s.seq[v]
}

// start puts slot sl on a machine at time t.
func (s *scratch) start(sl int, t, speed float64) {
	s.cAt[sl] = t + s.rem[sl]/speed
	s.byC.Push(sl)
	s.worst.Push(sl)
}

// keyMode selects how topmRun computes a job's static key at admission —
// an enum rather than a closure so runs stay allocation-free.
type keyMode uint8

const (
	keyNone     keyMode = iota // SRPT (rank by rem), FCFS (rank by seq)
	keySize                    // SJF
	keyPriority                // StaticPriority
)

// topmRun binds one top-m run's inputs and sink: the cursor supplying
// arrivals and exactly one of res (materialized) / sum (streaming).
type topmRun struct {
	cur  *core.Cursor
	res  *core.Result
	sum  *core.StreamResult
	s    *scratch
	obs  core.Observer
	km   keyMode
	prio *policy.StaticPriority
}

func (r *topmRun) keyFor(j core.Job) float64 {
	switch r.km {
	case keySize:
		return j.Size
	case keyPriority:
		return r.prio.PriorityOf(j.ID)
	}
	return 0
}

// run executes the top-m event loop; prepareTopM must have been called.
// The default mode is the bulk-advance loop below: an outer sweep over
// arrivals with an inner drain popping the whole run of completions that
// precede the next arrival — the next-arrival time is hoisted per drain
// (the cursor cannot change while completions pop), and exact epoch
// emission is skipped entirely when every attached observer tolerates
// coarse epochs. Event counting, context polling and floating-point
// expressions replicate runStepped (topm_stepped.go) precisely; the
// property wall in internal/check holds the two byte-identical.
func (r *topmRun) run(opts core.Options) error {
	if steppedAdvance.Load() {
		return r.runStepped(opts)
	}
	cur, s := r.cur, r.s
	m, sp := opts.Machines, opts.Speed
	if !cur.More() {
		return cur.Err()
	}
	ord := &s.ord
	byC, worst, waiting := &s.byC, &s.worst, &s.waiting
	obs := r.obs
	now := cur.Head().Release
	events := 0
	exact := obs != nil && !core.ObserverCoarseEpochsOK(obs)
	coarse := obs != nil && !exact
	batchStart := now
	batchAlive := 0

	for {
		hasA := cur.More()
		if err := cur.Err(); err != nil {
			return err
		}
		tA := math.Inf(1)
		if hasA {
			tA = cur.Head().Release
		}
		// Drain: completions with tC ≤ tA (ties complete first, as in the
		// stepped loop), each promoting the best waiting job.
		for byC.Len() > 0 {
			tC := s.cAt[byC.Min()]
			if !(tC <= tA) {
				break
			}
			events++
			if events&(ctxStride-1) == 0 {
				if err := core.Canceled(opts.Context, now, events); err != nil {
					return err
				}
			}
			if tC < now {
				tC = now // FP guard: time must not run backwards
			}
			if exact {
				// Each running job holds one machine (pre-speed rate 1).
				emitEpoch(obs, &s.epoch, now, tC, byC.Len()+waiting.Len(), float64(byC.Len()))
			}
			sl := byC.Pop()
			worst.Remove(sl)
			now = tC
			recordFinish(r.res, r.sum, obs, s.seq[sl], s.release[sl], now)
			s.freeSlot(sl)
			if waiting.Len() > 0 {
				s.start(waiting.Pop(), now, sp)
			}
			if coarse && now == batchStart { //rrlint:ignore floateq instant identity: now and batchStart carry the same propagated bits, not approximations
				// A zero-length completion at the interval's opening instant:
				// refresh the snapshot so it reflects the alive set once the
				// opening instant has fully played out.
				batchAlive = byC.Len() + waiting.Len()
			}
		}
		if byC.Len() == 0 && coarse {
			// The machines just went idle: the busy interval that opened at
			// batchStart ends here. (An empty byC implies an empty waiting
			// set — a waiting job means every machine is busy.)
			emitCoarseEpoch(obs, &s.epoch, batchStart, now, batchAlive, identicalRateSum(batchAlive, m))
		}
		if !hasA {
			break // byC drained fully against tA = +Inf, waiting is empty too
		}
		// Arrival.
		events++
		if events&(ctxStride-1) == 0 {
			if err := core.Canceled(opts.Context, now, events); err != nil {
				return err
			}
		}
		aliveBefore := byC.Len() + waiting.Len()
		if exact {
			emitEpoch(obs, &s.epoch, now, tA, aliveBefore, float64(byC.Len()))
		}
		now = tA
		j, seq := cur.Advance()
		if obs != nil {
			obs.ObserveArrival(now, seq, j)
		}
		tolJ := core.CompletionTol(j.Size)
		if j.Size <= tolJ {
			recordFinish(r.res, r.sum, obs, seq, j.Release, now) // degenerate job: completes at admission (as core.Run)
			if coarse && aliveBefore == 0 {
				batchStart, batchAlive = now, 0
			}
			continue
		}
		kJ := r.keyFor(j)
		switch {
		case byC.Len() < m:
			s.start(s.allocSlot(j, seq, kJ, tolJ), now, sp) // free machine (waiting is empty by the invariant)
		case ord.preempts(kJ, j.Size, seq, worst.Min(), now):
			v := worst.Min()
			remV := (s.cAt[v] - now) * sp // freeze the victim's progress
			byC.Remove(v)
			worst.Remove(v)
			if remV <= s.tol[v] {
				// The victim was within its completion tolerance of
				// finishing: the reference engine completes it at this
				// boundary, so record it here rather than re-queueing.
				recordFinish(r.res, r.sum, obs, s.seq[v], s.release[v], now)
				s.freeSlot(v)
			} else {
				s.rem[v] = remV
				waiting.Push(v)
			}
			s.start(s.allocSlot(j, seq, kJ, tolJ), now, sp)
		default:
			waiting.Push(s.allocSlot(j, seq, kJ, tolJ))
		}
		if coarse {
			if aliveBefore == 0 {
				// This arrival opened a new busy interval; snapshot its state.
				batchStart, batchAlive = now, byC.Len()+waiting.Len()
			} else if now == batchStart { //rrlint:ignore floateq instant identity: now and batchStart carry the same propagated bits, not approximations
				// A simultaneous arrival at the opening instant joins the
				// snapshot (the exact stream's first positive-length epoch
				// already counts it).
				batchAlive = byC.Len() + waiting.Len()
			}
		}
	}
	if r.res != nil {
		r.res.Events = events
	} else {
		r.sum.Events = events
	}
	return cur.Err()
}
