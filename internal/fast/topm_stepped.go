package fast

import (
	"math"

	"rrnorm/internal/core"
)

// runStepped is the stepped top-m event loop — one loop iteration per
// event, the pre-bulk-advance implementation kept verbatim as the
// differential baseline for topmRun.run's batched drain, exactly as
// runRRStepped is for the RR paths. SetSteppedAdvance(true) routes runs
// here; the property wall in internal/check holds the two byte-identical.
func (r *topmRun) runStepped(opts core.Options) error {
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

	for byC.Len() > 0 || waiting.Len() > 0 || cur.More() {
		if err := cur.Err(); err != nil {
			return err
		}
		events++
		if events&(ctxStride-1) == 0 {
			if err := core.Canceled(opts.Context, now, events); err != nil {
				return err
			}
		}
		tA, tC := math.Inf(1), math.Inf(1)
		if cur.More() {
			tA = cur.Head().Release
		}
		if byC.Len() > 0 {
			tC = byC.MinKey()
		}
		if tC <= tA {
			// Completion: the running job with the least cAt finishes; the
			// best waiting job takes its machine. (A free machine implies an
			// empty waiting set, so promoting exactly one is enough.)
			if tC < now {
				tC = now // FP guard: time must not run backwards
			}
			// Each running job holds one machine (pre-speed rate 1).
			emitEpoch(obs, &s.epoch, now, tC, byC.Len()+waiting.Len(), float64(byC.Len()))
			sl := byC.Pop()
			worst.Remove(sl)
			now = tC
			recordFinish(r.res, r.sum, obs, s.seq[sl], s.release[sl], now)
			s.freeSlot(sl)
			if waiting.Len() > 0 {
				s.start(waiting.Pop(), now, sp)
			}
			continue
		}
		// Arrival.
		emitEpoch(obs, &s.epoch, now, tA, byC.Len()+waiting.Len(), float64(byC.Len()))
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
