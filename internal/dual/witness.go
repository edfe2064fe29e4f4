package dual

import (
	"errors"
	"fmt"

	"rrnorm/internal/core"
)

// ErrWitnessIncomplete reports that a WitnessObserver's certificate was
// requested before its run delivered ObserveDone (the run errored, or is
// still in flight).
var ErrWitnessIncomplete = errors.New("dual: witness run did not complete")

// WitnessObserver accumulates the paper's dual variables online: α_j grows
// epoch by epoch via the same closed-form integrals Build derives from a
// recorded Segment timeline, and the β side plus all feasibility checks run at ObserveDone.
// Because it shares Build's accumulation (alphaEpoch) and finish
// (finishCertificate) verbatim, the certificate it produces is
// bitwise-identical to Build's on the same schedule — without ever
// materializing the Segment timeline, so certifying a long run needs
// O(jobs) memory instead of O(events).
//
// The α prefix-sum construction reads each epoch's per-job alive list, so
// the observer needs job epochs and routes engine dispatch to the
// reference engine (NeedsJobEpochs). Attach with core.Options.Observer and
// read Certificate after the run.
type WitnessObserver struct {
	k        int
	eps      float64
	machines int

	releases []float64 // releases[job], learned from arrivals
	alpha    []float64 // accumulated ∫ terms per job
	cert     *Certificate
}

// NewWitnessObserver returns an observer for an m-machine run certifying
// the ℓk objective with parameter eps (k ≥ 1, eps ∈ (0, 0.1], as Build).
func NewWitnessObserver(k int, eps float64, machines int) (*WitnessObserver, error) {
	if err := checkParams(k, eps); err != nil {
		return nil, err
	}
	if machines < 1 {
		return nil, fmt.Errorf("%w: Machines=%d", core.ErrBadOptions, machines)
	}
	return &WitnessObserver{k: k, eps: eps, machines: machines}, nil
}

// NeedsJobEpochs implements core.JobEpochObserver: the α construction
// needs each epoch's alive list.
func (w *WitnessObserver) NeedsJobEpochs() bool { return true }

// ObserveArrival implements core.Observer: it learns the job's release
// time, which the α integrals read on every later epoch. Arrivals come in
// normalized index order, so the per-job arrays grow by appending.
func (w *WitnessObserver) ObserveArrival(t float64, job int, j core.Job) {
	for len(w.releases) <= job {
		w.releases = append(w.releases, 0)
		w.alpha = append(w.alpha, 0)
	}
	w.releases[job] = j.Release
}

// ObserveEpoch implements core.Observer: one rate-constant interval's
// closed-form α contribution, exactly as Build accumulates it per segment.
func (w *WitnessObserver) ObserveEpoch(e *core.Epoch) {
	alphaEpoch(w.alpha, w.releases, e.Jobs, e.Start, e.End, w.k, len(e.Jobs) >= w.machines)
}

// ObserveCompletion implements core.Observer.
func (w *WitnessObserver) ObserveCompletion(t float64, job int, flow float64) {}

// ObserveDone implements core.Observer: with flows and completions final,
// the β construction and the constraint checks run as in Build.
func (w *WitnessObserver) ObserveDone(res *core.Result) {
	for len(w.alpha) < len(res.Jobs) {
		w.alpha = append(w.alpha, 0)
	}
	w.cert = finishCertificate(res, w.k, w.eps, w.alpha)
}

// Certificate returns the certificate built at ObserveDone, or
// ErrWitnessIncomplete when the run has not (successfully) finished.
func (w *WitnessObserver) Certificate() (*Certificate, error) {
	if w.cert == nil {
		return nil, ErrWitnessIncomplete
	}
	return w.cert, nil
}
