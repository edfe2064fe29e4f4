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
// completions — which promote the best waiting job. Three slot heaps
// (next completion, preemption victim, promotion candidate; see slotHeap),
// each item carrying its frozen (key, seq) order key inline, make every
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
	// ordStatic ranks by a fixed per-slot key (0 for FCFS, so the order is
	// pure sequence) with the arrival-sequence tie-break (sequence order is
	// (Release, ID) order, the reference tie-break).
	ordStatic ordKind = iota
	// ordSRPT ranks by remaining work: frozen rem for waiting jobs,
	// cAt-implied for running ones (equal drain rate ⇒ cAt order is
	// remaining order).
	ordSRPT
)

// ordering is the top-m run's policy order. It reads the slot arrays
// through the scratch pointer — not captured slices — so slot growth never
// leaves it stale, and it is a concrete struct with methods rather than a
// set of closures so workspace reuse stays allocation-free. The heaps do
// not consult it: start and wait key each item once, at push.
type ordering struct {
	kind  ordKind
	s     *scratch
	speed float64
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
	if kv := o.s.key[v]; jKey != kv {
		return jKey < kv
	}
	return jSeq < o.s.seq[v]
}

// start puts slot sl on a machine at time t. byC is keyed (cAt, seq);
// worst is keyed (−rank, −seq), rank being cAt for SRPT and the static key
// otherwise, so its minimum is the running job last in the policy order.
// Negation is exact, so the order is the mirror image bit for bit.
func (s *scratch) start(sl int, t, speed float64) {
	c := t + s.rem[sl]/speed
	s.cAt[sl] = c
	seq := s.seq[sl]
	s.byC.Push(c, seq, sl)
	rank := s.key[sl]
	if s.ord.kind == ordSRPT {
		rank = c
	}
	s.worst.Push(-rank, -seq, sl)
}

// wait queues slot sl, keyed (rank, seq) with rank its frozen remaining
// work for SRPT and the static key otherwise: a waiting job's rank cannot
// change until it is promoted.
func (s *scratch) wait(sl int) {
	rank := s.key[sl]
	if s.ord.kind == ordSRPT {
		rank = s.rem[sl]
	}
	s.waiting.Push(rank, s.seq[sl], sl)
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
// It is a bulk-advance loop: an outer sweep over arrivals with an inner
// drain popping the whole run of completions that precede the next
// arrival — the next-arrival time is hoisted per drain (the cursor cannot
// change while completions pop), and epoch emission is skipped entirely
// when every attached observer is epoch-blind (core.ObserverCoarseEpochsOK).
func (r *topmRun) run(opts core.Options) error {
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
	epochs := !core.ObserverCoarseEpochsOK(obs)

	for {
		hasA := cur.More()
		if err := cur.Err(); err != nil {
			return err
		}
		tA := math.Inf(1)
		if hasA {
			tA = cur.Head().Release
		}
		// Drain: completions with tC ≤ tA (a completion at an arrival's
		// instant goes first), each promoting the best waiting job — a free
		// machine implies an empty waiting set, so one promotion suffices.
		for byC.Len() > 0 {
			tC := byC.MinKey()
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
			if epochs {
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
		if epochs {
			emitEpoch(obs, &s.epoch, now, tA, byC.Len()+waiting.Len(), float64(byC.Len()))
		}
		now = tA
		j, seq := cur.Advance()
		if obs != nil {
			obs.ObserveArrival(now, seq, j)
		}
		tolJ := core.CompletionTol(j.Size)
		if j.Size <= tolJ {
			recordFinish(r.res, r.sum, obs, seq, j.Release, now) // degenerate job: completes at admission (as core.Run)
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
				s.wait(v)
			}
			s.start(s.allocSlot(j, seq, kJ, tolJ), now, sp)
		default:
			s.wait(s.allocSlot(j, seq, kJ, tolJ))
		}
	}
	if r.res != nil {
		r.res.Events = events
	} else {
		r.sum.Events = events
	}
	return cur.Err()
}
