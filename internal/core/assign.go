package core

import (
	"fmt"
	"sort"
)

// Slice is a contiguous run of one job on one machine.
type Slice struct {
	Job        int // instance index (position in Result.Jobs)
	Start, End float64
}

// MachineSchedule is the explicit timeline of one machine.
type MachineSchedule struct {
	Machine int
	Slices  []Slice
}

// AssignMachines converts the rate timeline segs (recorded by a
// SegmentRecorder) into an explicit per-machine preemptive schedule using McNaughton's wrap-around rule
// within each segment: a segment of length Δ gives job i an amount
// a_i = rate_i·Δ ≤ Δ with Σ a_i ≤ m·Δ, which always packs into m machines
// with no job running on two machines at once. This is the constructive
// proof that every simulated rate profile is realizable on real machines —
// and the basis for exporting concrete schedules.
func AssignMachines(res *Result, segs []Segment) ([]MachineSchedule, error) {
	if TimelineMissing(res, segs) {
		return nil, fmt.Errorf("core: AssignMachines needs segments (attach a SegmentRecorder)")
	}
	machines := make([]MachineSchedule, res.Machines)
	for i := range machines {
		machines[i].Machine = i
	}
	const tol = 1e-9
	for si := range segs {
		seg := &segs[si]
		Δ := seg.Duration()
		if Δ <= 0 {
			continue
		}
		// Wrap-around packing: walk jobs in order, filling machine 0 from
		// the segment start, spilling the remainder of a job that crosses
		// the machine boundary onto the next machine — legal because a
		// job's amount a_i ≤ Δ means its two pieces never overlap in time.
		mach := 0
		offset := 0.0
		emit := func(job int, from, to float64) {
			if to-from <= tol {
				return
			}
			machines[mach].Slices = append(machines[mach].Slices, Slice{
				Job:   job,
				Start: seg.Start + from,
				End:   seg.Start + to,
			})
		}
		for k, idx := range seg.Jobs {
			amount := seg.Rates[k] * Δ
			if amount <= tol {
				continue
			}
			if amount > Δ+tol {
				return nil, fmt.Errorf("core: job index %d rate %v exceeds 1 in segment %d", idx, seg.Rates[k], si)
			}
			if offset+amount <= Δ+tol {
				emit(idx, offset, offset+amount)
				offset += amount
				if offset >= Δ-tol {
					mach++
					offset = 0
				}
				continue
			}
			// Split across the wrap: [offset, Δ) on this machine and
			// [0, remainder) on the next.
			first := Δ - offset
			emit(idx, offset, Δ)
			if mach+1 >= res.Machines {
				return nil, fmt.Errorf("core: segment %d overflows %d machines (Σ rates too large)", si, res.Machines)
			}
			mach++
			offset = 0
			emit(idx, 0, amount-first)
			offset = amount - first
		}
	}
	for i := range machines {
		sort.Slice(machines[i].Slices, func(a, b int) bool {
			return machines[i].Slices[a].Start < machines[i].Slices[b].Start
		})
	}
	return machines, nil
}

// ValidateAssignment cross-checks an explicit machine schedule against the
// result it was derived from: slices on one machine do not overlap, no job
// runs on two machines simultaneously, jobs run only within
// [release, completion], and per-job totals×speed reproduce sizes.
func ValidateAssignment(res *Result, machines []MachineSchedule) error {
	const tol = 1e-6
	total := make([]float64, len(res.Jobs))
	type iv struct {
		job        int
		start, end float64
	}
	var all []iv
	for _, m := range machines {
		prevEnd := -1.0
		for _, s := range m.Slices {
			if s.End <= s.Start-tol {
				return fmt.Errorf("core: machine %d has reversed slice %+v", m.Machine, s)
			}
			if s.Start < prevEnd-tol {
				return fmt.Errorf("core: machine %d slices overlap at %v", m.Machine, s.Start)
			}
			prevEnd = s.End
			j := res.Jobs[s.Job]
			if s.Start < j.Release-tol {
				return fmt.Errorf("core: job %d runs before release", j.ID)
			}
			if s.End > res.Completion[s.Job]+tol*(1+res.Completion[s.Job]) {
				return fmt.Errorf("core: job %d runs after completion", j.ID)
			}
			total[s.Job] += s.End - s.Start
			all = append(all, iv{s.Job, s.Start, s.End})
		}
	}
	for i, j := range res.Jobs {
		if d := total[i]*res.Speed - j.Size; d > tol*(1+j.Size) || d < -tol*(1+j.Size) {
			return fmt.Errorf("core: job %d assigned %v machine-time (size %v at speed %v)", j.ID, total[i], j.Size, res.Speed)
		}
	}
	// No job on two machines at once: sweep per job.
	sort.Slice(all, func(a, b int) bool {
		if all[a].job != all[b].job {
			return all[a].job < all[b].job
		}
		return all[a].start < all[b].start
	})
	for i := 1; i < len(all); i++ {
		if all[i].job == all[i-1].job && all[i].start < all[i-1].end-tol {
			return fmt.Errorf("core: job index %d runs on two machines at %v", all[i].job, all[i].start)
		}
	}
	return nil
}
