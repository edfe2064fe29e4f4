package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidSchedule wraps all schedule-validation failures.
var ErrInvalidSchedule = errors.New("core: invalid schedule")

// TimelineMissing reports whether segs cannot be res's rate timeline: it is
// empty while some job needed processing. A run whose every job completes
// at admission (Size ≤ CompletionTol(Size)) emits no epochs, so an empty
// timeline is its whole timeline. The timeline readers that must see the
// work done (ValidateResult, AssignMachines, FractionalFlows,
// FractionalAgeMoment, dual.Build) reject a run with this one test.
func TimelineMissing(res *Result, segs []Segment) bool {
	if len(segs) > 0 {
		return false
	}
	for _, j := range res.Jobs {
		if j.Size > CompletionTol(j.Size) {
			return true
		}
	}
	return false
}

// ValidateResult cross-checks a run's rate timeline segs (recorded by a
// SegmentRecorder) against the instance and the engine's reported
// completions:
//
//   - segments are chronological and non-overlapping;
//   - every rate is in [0, s_max] and per-segment rate sums are ≤ Σ speeds
//     (for the default machine model: rates in [0,1], sums ≤ m);
//   - jobs are only processed inside [release, completion];
//   - each job's integrated rate × speed equals its size plus PreemptCost
//     per preemption — reconstructed from the segment timeline as the
//     number of positive→zero rate transitions while alive (within
//     tolerance);
//   - completions and flows are consistent (C_j = r_j + F_j, C_j ≥ r_j).
func ValidateResult(res *Result, segs []Segment) error {
	n := len(res.Jobs)
	maxRate, capSum := 1.0, float64(res.Machines)
	if res.MachineModel.Heterogeneous() {
		maxRate, capSum = 0, 0
		for _, s := range res.MachineModel.Speeds {
			capSum += s
			if s > maxRate {
				maxRate = s
			}
		}
	}
	pc := res.MachineModel.PreemptCost
	if len(res.Completion) != n || len(res.Flow) != n {
		return fmt.Errorf("%w: completion/flow length mismatch", ErrInvalidSchedule)
	}
	if TimelineMissing(res, segs) {
		return fmt.Errorf("%w: no segments recorded (attach a SegmentRecorder)", ErrInvalidSchedule)
	}
	for i, j := range res.Jobs {
		if res.Completion[i] < j.Release-1e-9 {
			return fmt.Errorf("%w: job %d completes at %v before release %v", ErrInvalidSchedule, j.ID, res.Completion[i], j.Release)
		}
		if d := math.Abs(res.Completion[i] - j.Release - res.Flow[i]); d > 1e-6*(1+res.Completion[i]) {
			return fmt.Errorf("%w: job %d flow inconsistent (C=%v r=%v F=%v)", ErrInvalidSchedule, j.ID, res.Completion[i], j.Release, res.Flow[i])
		}
	}
	work := make([]float64, n)
	var preempts []int
	var prevRate []float64
	if pc > 0 {
		preempts = make([]int, n)
		prevRate = make([]float64, n)
	}
	prevEnd := math.Inf(-1)
	for si := range segs {
		seg := &segs[si]
		if seg.End < seg.Start {
			return fmt.Errorf("%w: segment %d reversed [%v,%v)", ErrInvalidSchedule, si, seg.Start, seg.End)
		}
		if seg.Start < prevEnd-1e-9 {
			return fmt.Errorf("%w: segment %d overlaps previous (start %v < prev end %v)", ErrInvalidSchedule, si, seg.Start, prevEnd)
		}
		prevEnd = seg.End
		if len(seg.Jobs) != len(seg.Rates) {
			return fmt.Errorf("%w: segment %d jobs/rates length mismatch", ErrInvalidSchedule, si)
		}
		sum := 0.0
		for k, idx := range seg.Jobs {
			if idx < 0 || idx >= n {
				return fmt.Errorf("%w: segment %d references job index %d", ErrInvalidSchedule, si, idx)
			}
			r := seg.Rates[k]
			if r < -rateTol || r > maxRate+rateTol || math.IsNaN(r) {
				return fmt.Errorf("%w: segment %d rate %v for job index %d", ErrInvalidSchedule, si, r, idx)
			}
			sum += r
			if pc > 0 {
				if prevRate[idx] > 0 && r <= 0 {
					preempts[idx]++
				}
				prevRate[idx] = r
			}
			j := res.Jobs[idx]
			if seg.Start < j.Release-1e-9 {
				return fmt.Errorf("%w: job %d processed in segment starting %v before release %v", ErrInvalidSchedule, j.ID, seg.Start, j.Release)
			}
			if seg.End > res.Completion[idx]+1e-6*(1+res.Completion[idx]) {
				return fmt.Errorf("%w: job %d alive in segment ending %v after completion %v", ErrInvalidSchedule, j.ID, seg.End, res.Completion[idx])
			}
			work[idx] += r * res.Speed * seg.Duration()
		}
		if sum > capSum+1e-6 {
			return fmt.Errorf("%w: segment %d total rate %v exceeds capacity %v (m=%d)", ErrInvalidSchedule, si, sum, capSum, res.Machines)
		}
	}
	for i, j := range res.Jobs {
		want := j.Size
		if pc > 0 {
			want += float64(preempts[i]) * pc
		}
		if d := math.Abs(work[i] - want); d > 1e-6*(1+want) {
			return fmt.Errorf("%w: job %d received %v work, size %v (+%d preemptions)", ErrInvalidSchedule, j.ID, work[i], want, preemptCount(preempts, i))
		}
	}
	return nil
}

func preemptCount(preempts []int, i int) int {
	if preempts == nil {
		return 0
	}
	return preempts[i]
}

// OverloadedAt reports whether the segment is an overloaded time in the
// paper's sense: |A(t)| ≥ m (all machines busy under RR).
func (s *Segment) OverloadedAt(m int) bool { return len(s.Jobs) >= m }
