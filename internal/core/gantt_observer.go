package core

import (
	"fmt"
	"sort"
	"strings"
)

// GanttObserver renders the same per-job rate chart as RenderGantt from
// the event stream, without a recorded Segment timeline. It keeps a fixed
// number of time buckets per job and, when the schedule outgrows the
// covered span, doubles the bucket width by merging neighbors — so memory
// is O(jobs · Width) no matter how many events the run produces, where
// RenderGantt needs the full O(events) timeline first.
//
// The chart is RenderGantt's up to bucket alignment: the streaming
// renderer's buckets are the power-of-two multiple of its first epoch's
// duration that covers the horizon, not an exact Width-fold split of it,
// so individual glyphs may differ by one shade near bucket boundaries.
//
// It needs per-job epochs (NeedsJobEpochs), so dispatching front-ends
// route it to the reference engine.
type GanttObserver struct {
	// Width is the number of time buckets (columns); values < 10 fall back
	// to 60, as RenderGantt.
	Width int

	width   int
	started bool
	start   float64 // left edge of the covered span
	bucket  float64 // current bucket duration; span = bucket·width
	end     float64 // latest epoch end seen

	jobs  []Job       // normalized job copies, learned from arrivals
	acc   [][]float64 // rate·time per (job, bucket)
	alive [][]bool

	done   bool
	policy string
	mach   int
	speed  float64
}

// NewGanttObserver returns an observer rendering width columns.
func NewGanttObserver(width int) *GanttObserver {
	return &GanttObserver{Width: width}
}

// NeedsJobEpochs implements JobEpochObserver: the chart needs each epoch's
// per-job rates.
func (g *GanttObserver) NeedsJobEpochs() bool { return true }

// ObserveArrival implements Observer. Arrivals come in normalized index
// order, so appending keeps g.jobs aligned with job indices.
func (g *GanttObserver) ObserveArrival(t float64, job int, j Job) {
	g.lazyInitWidth()
	for len(g.jobs) <= job {
		g.jobs = append(g.jobs, Job{})
		g.acc = append(g.acc, make([]float64, g.width))
		g.alive = append(g.alive, make([]bool, g.width))
	}
	g.jobs[job] = j
}

func (g *GanttObserver) lazyInitWidth() {
	if g.width == 0 {
		g.width = g.Width
		if g.width < 10 {
			g.width = 60
		}
	}
}

// ObserveEpoch implements Observer: the interval's rate·time is spread over
// the buckets it overlaps, doubling the bucket width first if the epoch
// extends past the covered span.
func (g *GanttObserver) ObserveEpoch(e *Epoch) {
	g.lazyInitWidth()
	if e.End > g.end {
		g.end = e.End
	}
	d := e.End - e.Start
	if d <= 0 {
		return // zero-length epoch (extreme-magnitude parity case): no area
	}
	if !g.started {
		g.started = true
		g.start = e.Start
		g.bucket = d / float64(g.width)
	}
	// Double the bucket width (merging neighbor pairs in place) until the
	// epoch fits; each doubling halves the used prefix, so the loop runs
	// O(log(span/firstDuration)) times over the whole run.
	for e.End > g.start+g.bucket*float64(g.width) {
		g.bucket *= 2
		for i := range g.acc {
			row, liv := g.acc[i], g.alive[i]
			for b := 1; b < g.width; b++ {
				dst := b / 2
				if dst == b {
					continue
				}
				row[dst] += row[b]
				row[b] = 0
				if liv[b] {
					liv[dst] = true
					liv[b] = false
				}
			}
		}
	}
	for k, idx := range e.Jobs {
		rate := e.Rates[k]
		b0 := int((e.Start - g.start) / g.bucket)
		b1 := int((e.End - g.start) / g.bucket)
		if b1 >= g.width {
			b1 = g.width - 1
		}
		row, liv := g.acc[idx], g.alive[idx]
		for b := b0; b <= b1; b++ {
			lo := g.start + float64(b)*g.bucket
			hi := lo + g.bucket
			if e.Start > lo {
				lo = e.Start
			}
			if e.End < hi {
				hi = e.End
			}
			if hi > lo {
				row[b] += rate * (hi - lo)
				liv[b] = true
			}
		}
	}
}

// ObserveCompletion implements Observer.
func (g *GanttObserver) ObserveCompletion(t float64, job int, flow float64) {}

// ObserveDone implements Observer: it captures the run's header fields;
// nothing from res is retained.
func (g *GanttObserver) ObserveDone(res *Result) {
	g.done = true
	g.policy = res.Policy
	g.mach = res.Machines
	g.speed = res.Speed
}

// Render draws the accumulated chart (after the run's ObserveDone). Output
// mirrors RenderGantt: a header line, then one row per job ordered by
// (Release, ID), glyph darkness ∝ average rate per bucket.
func (g *GanttObserver) Render() string {
	n := len(g.jobs)
	if n == 0 || !g.done {
		return "(empty schedule)\n"
	}
	if !g.started || !(g.bucket > 0) {
		// Only degenerate (zero-duration) epochs, or none at all: there is
		// no span to bucket.
		return fmt.Sprintf("t = %.6g (single-instant schedule), %d jobs, policy %s (m=%d, s=%.3g)\n",
			g.end, n, g.policy, g.mach, g.speed)
	}
	// Trim trailing buckets past the last epoch so the chart ends at the
	// schedule, not at the power-of-two covered span.
	used := int((g.end - g.start) / g.bucket)
	if float64(used)*g.bucket < g.end-g.start {
		used++
	}
	if used < 1 {
		used = 1
	}
	if used > g.width {
		used = g.width
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := g.jobs[order[a]], g.jobs[order[b]]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		return ja.ID < jb.ID
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "t ∈ [%.3g, %.3g], %d jobs, policy %s (m=%d, s=%.3g)\n",
		g.start, g.start+float64(used)*g.bucket, n, g.policy, g.mach, g.speed)
	for _, idx := range order {
		fmt.Fprintf(&sb, "%5d │", g.jobs[idx].ID)
		for b := 0; b < used; b++ {
			if !g.alive[idx][b] {
				sb.WriteByte(' ')
				continue
			}
			avg := g.acc[idx][b] / g.bucket
			if avg > 1 {
				avg = 1
			}
			gl := int(avg * float64(len(ganttShades)))
			if gl >= len(ganttShades) {
				gl = len(ganttShades) - 1
			}
			sb.WriteRune(ganttShades[gl])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
