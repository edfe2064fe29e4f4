package core

import "fmt"

// FractionalFlows computes each job's fractional flow time
// F̃_j = ∫_{r_j}^{C_j} (rem_j(t) / p_j) dt from a run's rate timeline segs
// (recorded by a SegmentRecorder). Fractional flow discounts a job by the
// fraction already completed; it is the objective under which a fractional
// variant of SETF is scalable on multiple machines (Barcelo–Im–Moseley–
// Pruhs, cited in the paper's Related Work). Always F̃_j ≤ F_j, with
// equality only for jobs that receive all their processing in a final
// instant.
//
// Within a segment the job's rate is constant, so the remaining work is
// linear and the integral is exact:
// ∫_a^b rem(t) dt = rem(a)·Δ − ρ·s·Δ²/2 with Δ = b − a.
func FractionalFlows(res *Result, segs []Segment) ([]float64, error) {
	n := len(res.Jobs)
	if n == 0 {
		return nil, nil
	}
	if TimelineMissing(res, segs) {
		return nil, fmt.Errorf("core: FractionalFlows needs segments (attach a SegmentRecorder)")
	}
	rem := make([]float64, n)
	for i, j := range res.Jobs {
		rem[i] = j.Size
	}
	out := make([]float64, n)
	for si := range segs {
		seg := &segs[si]
		Δ := seg.Duration()
		for k, idx := range seg.Jobs {
			ρs := seg.Rates[k] * res.Speed
			out[idx] += (rem[idx] - ρs*Δ/2) * Δ / res.Jobs[idx].Size
			rem[idx] -= ρs * Δ
			if rem[idx] < 0 {
				rem[idx] = 0
			}
		}
	}
	return out, nil
}

// FractionalAgeMoment computes the k-th fractional age moment
//
//	Σ_j ∫ (rate_j(t)·speed / p_j) · (t − r_j)^k dt
//
// over a run's rate timeline segs: the quantity the paper's LP objective
// integrates (its age term), where each unit of work is charged the k-th
// power of the age at which it is processed. For k = 1 it equals the total
// fractional flow time (classic integration by parts), which the tests
// verify. Segment-exact: ∫_a^b (t−r)^k dt = ((b−r)^{k+1} − (a−r)^{k+1})/(k+1).
func FractionalAgeMoment(res *Result, segs []Segment, k int) (float64, error) {
	if len(res.Jobs) == 0 {
		return 0, nil
	}
	if TimelineMissing(res, segs) {
		return 0, fmt.Errorf("core: FractionalAgeMoment needs segments (attach a SegmentRecorder)")
	}
	var total float64
	kk := float64(k + 1)
	for si := range segs {
		seg := &segs[si]
		for i, idx := range seg.Jobs {
			r := res.Jobs[idx].Release
			up := pow1(seg.End-r, k+1) - pow1(seg.Start-r, k+1)
			total += seg.Rates[i] * res.Speed / res.Jobs[idx].Size * up / kk
		}
	}
	return total, nil
}

// AgeMomentObserver accumulates FractionalAgeMoment's integral online
// from the epoch stream instead of from a recorded Segment timeline: the
// same per-epoch term, in the same order, so on the reference engine the
// two agree to the last bit. It needs per-job epochs (rates per job), so
// dispatchers route runs carrying it to the reference engine.
type AgeMomentObserver struct {
	k        int
	speed    float64
	kk       float64
	releases []float64
	sizes    []float64
	total    float64
}

// NewAgeMomentObserver returns an observer for the k-th fractional age
// moment of a run at the given speed (the engine's Options.Speed; the
// observer cannot see it before ObserveDone, and the accumulation must
// multiply it term-by-term to match FractionalAgeMoment bitwise).
func NewAgeMomentObserver(k int, speed float64) *AgeMomentObserver {
	return &AgeMomentObserver{k: k, speed: speed, kk: float64(k + 1)}
}

// NeedsJobEpochs implements JobEpochObserver.
func (o *AgeMomentObserver) NeedsJobEpochs() bool { return true }

// ObserveArrival implements Observer.
func (o *AgeMomentObserver) ObserveArrival(t float64, job int, j Job) {
	for len(o.releases) <= job {
		o.releases = append(o.releases, 0)
		o.sizes = append(o.sizes, 0)
	}
	o.releases[job] = j.Release
	o.sizes[job] = j.Size
}

// ObserveEpoch implements Observer.
func (o *AgeMomentObserver) ObserveEpoch(e *Epoch) {
	for i, idx := range e.Jobs {
		r := o.releases[idx]
		up := pow1(e.End-r, o.k+1) - pow1(e.Start-r, o.k+1)
		o.total += e.Rates[i] * o.speed / o.sizes[idx] * up / o.kk
	}
}

// ObserveCompletion implements Observer.
func (o *AgeMomentObserver) ObserveCompletion(t float64, job int, flow float64) {}

// ObserveDone implements Observer.
func (o *AgeMomentObserver) ObserveDone(res *Result) {}

// Value returns the accumulated moment.
func (o *AgeMomentObserver) Value() float64 { return o.total }

// pow1 is x^e for small positive integer e.
func pow1(x float64, e int) float64 {
	r := x
	for i := 1; i < e; i++ {
		r *= x
	}
	return r
}
