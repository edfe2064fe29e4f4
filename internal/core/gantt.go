package core

import (
	"fmt"
	"sort"
	"strings"
)

// ganttShades maps a rate in [0,1] to a glyph, light to dark.
var ganttShades = []rune{'·', '░', '▒', '▓', '█'}

// RenderGantt draws a run's rate timeline segs (recorded by a
// SegmentRecorder) as an ASCII chart: one row per job, one column per time
// bucket, glyph darkness ∝ the job's average rate
// in that bucket ('·' idle-but-alive through '█' a full machine). Released
// and completed regions are blank. Useful for eyeballing how RR's equal
// sharing differs from SRPT's focus.
func RenderGantt(res *Result, segs []Segment, width int) string {
	n := len(res.Jobs)
	if n == 0 || len(segs) == 0 {
		return "(empty schedule)\n"
	}
	if width < 10 {
		width = 60
	}
	start := segs[0].Start
	end := res.Makespan()
	if end <= start {
		end = start + 1
	}
	bucket := (end - start) / float64(width)
	// A single-instant schedule can defeat the end = start+1 widening: at
	// magnitudes where start+1 == start in float64 (all-zero-duration
	// segments around t ≈ 1e16), bucket underflows to 0 and the bucket
	// index below becomes int(NaN) — render a header instead of indexing
	// with it.
	if !(bucket > 0) {
		return fmt.Sprintf("t = %.6g (single-instant schedule), %d jobs, policy %s (m=%d, s=%.3g)\n",
			start, n, res.Policy, res.Machines, res.Speed)
	}

	// Accumulate rate·time per (job, bucket), then normalize.
	acc := make([][]float64, n)
	for i := range acc {
		acc[i] = make([]float64, width)
	}
	alive := make([][]bool, n)
	for i := range alive {
		alive[i] = make([]bool, width)
	}
	for si := range segs {
		seg := &segs[si]
		for k, idx := range seg.Jobs {
			rate := seg.Rates[k]
			// Spread the segment across the buckets it overlaps.
			b0 := int((seg.Start - start) / bucket)
			b1 := int((seg.End - start) / bucket)
			if b1 >= width {
				b1 = width - 1
			}
			for b := b0; b <= b1; b++ {
				lo := start + float64(b)*bucket
				hi := lo + bucket
				if seg.Start > lo {
					lo = seg.Start
				}
				if seg.End < hi {
					hi = seg.End
				}
				if hi > lo {
					acc[idx][b] += rate * (hi - lo)
					alive[idx][b] = true
				}
			}
		}
	}

	// Order rows by release for readability.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := res.Jobs[order[a]], res.Jobs[order[b]]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		return ja.ID < jb.ID
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "t ∈ [%.3g, %.3g], %d jobs, policy %s (m=%d, s=%.3g)\n",
		start, end, n, res.Policy, res.Machines, res.Speed)
	for _, idx := range order {
		fmt.Fprintf(&sb, "%5d │", res.Jobs[idx].ID)
		for b := 0; b < width; b++ {
			if !alive[idx][b] {
				sb.WriteByte(' ')
				continue
			}
			avg := acc[idx][b] / bucket
			if avg > 1 {
				avg = 1
			}
			g := int(avg * float64(len(ganttShades)))
			if g >= len(ganttShades) {
				g = len(ganttShades) - 1
			}
			sb.WriteRune(ganttShades[g])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
