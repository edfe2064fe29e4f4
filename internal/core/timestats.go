package core

// TimeStats are time-averaged quantities of a recorded schedule.
type TimeStats struct {
	// Horizon is [Start, End] covered by segments.
	Start, End float64
	// AvgAlive is the time-average number of alive jobs over [Start, End]
	// (the L of Little's law L = λ·W).
	AvgAlive float64
	// MaxAlive is the peak alive count.
	MaxAlive int
	// Utilization is the consumed machine share: ∫ Σ_j rate_j dt / (m·T).
	Utilization float64
	// BusyTime is the total time with at least one alive job; BusyPeriods
	// counts maximal busy intervals.
	BusyTime    float64
	BusyPeriods int
	// OverloadedTime is the total time with n_t ≥ m (the paper's T_o).
	OverloadedTime float64
}

// ComputeTimeStats derives TimeStats from a run's rate timeline segs
// (recorded by a SegmentRecorder); res supplies the machine count.
func ComputeTimeStats(res *Result, segs []Segment) TimeStats {
	var ts TimeStats
	if len(segs) == 0 {
		return ts
	}
	ts.Start = segs[0].Start
	ts.End = segs[len(segs)-1].End
	total := ts.End - ts.Start
	if total <= 0 {
		return ts
	}
	var aliveArea, rateArea float64
	prevEnd := ts.Start
	for si := range segs {
		seg := &segs[si]
		d := seg.Duration()
		if seg.Start > prevEnd+1e-12*(1+seg.Start) || si == 0 {
			ts.BusyPeriods++
		}
		prevEnd = seg.End
		ts.BusyTime += d
		n := len(seg.Jobs)
		aliveArea += float64(n) * d
		if n > ts.MaxAlive {
			ts.MaxAlive = n
		}
		if seg.OverloadedAt(res.Machines) {
			ts.OverloadedTime += d
		}
		var sum float64
		for _, r := range seg.Rates {
			sum += r
		}
		rateArea += sum * d
	}
	ts.AvgAlive = aliveArea / total
	ts.Utilization = rateArea / (float64(res.Machines) * total)
	return ts
}
