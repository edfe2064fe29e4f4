package fast

import (
	"rrnorm/internal/core"
)

// runRRStepped is the stepped Round Robin event loop: one loop iteration
// per event (equivalently, per epoch — an epoch is the interval between
// consecutive events). It is the pre-bulk-advance implementation, kept
// verbatim as the differential baseline for the batched paths in rr.go:
// SetSteppedAdvance(true) routes runs here, the property wall in
// internal/check proves both modes byte-identical, and the bench-smoke
// ratchet measures the batched paths against this loop.
//
// See runRR for the virtual-time ("fair share") accounting both modes
// share: V(t) = ∫ min(1, m/n_t)·s dτ, a job admitted at t₀ with size p
// completes when V reaches V(t₀) + p, and the heap orders jobs by
// (completion target, sequence number).
func runRRStepped(r *rrRun, opts core.Options) error {
	cur := r.cur
	if !cur.More() {
		return cur.Err()
	}
	r.h.Reuse(0) // capacity tracks the peak alive set, not the stream length
	r.now = cur.Head().Release

	r.admit()
	r.complete()
	events := 1
	for r.h.Len() > 0 || cur.More() {
		if err := cur.Err(); err != nil {
			return err
		}
		events++
		if events&(ctxStride-1) == 0 {
			if err := core.Canceled(opts.Context, r.now, events); err != nil {
				return err
			}
		}
		if r.h.Len() == 0 {
			// Idle gap: jump to the next arrival; V does not advance.
			r.now = cur.Head().Release
			r.admit()
			r.complete()
			continue
		}
		// rate = speed · min(1, m/alive), spelled as a branch: m and alive
		// are small ints, so m/alive is exact when it matters (alive ≤ m ⇒
		// factor 1) and math.Min's NaN handling is dead weight here. Under a
		// heterogeneous model the fair share comes from the env's
		// water-filling prefix sums instead.
		rate := r.speed
		if r.hetero {
			rate = r.speed * r.env.FairShare(r.h.Len())
		} else if alive := r.h.Len(); alive > r.m {
			rate *= float64(r.m) / float64(alive)
		}
		minKey := r.h.Min().Key
		tC := r.now + (minKey-r.V)/rate
		if tC < r.now {
			tC = r.now // guard against cancellation in minKey−V
		}
		if cur.More() && cur.Head().Release < tC {
			// Next event is an arrival: advance the fair share to it.
			t := cur.Head().Release
			r.epoch(t)
			r.V += (t - r.now) * rate
			r.now = t
			r.admit()
		} else {
			// Next event is a completion: land V exactly on the target so
			// simultaneous completions (identical targets) drain together.
			r.epoch(tC)
			r.V = minKey
			r.now = tC
		}
		r.complete()
	}
	if r.res != nil {
		r.res.Events = events
	} else {
		r.sum.Events = events
	}
	return cur.Err()
}
