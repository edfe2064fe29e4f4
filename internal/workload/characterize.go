package workload

import (
	"fmt"
	"sort"
	"strings"

	"rrnorm/internal/core"
	"rrnorm/internal/metrics"
)

// Profile summarizes the statistical character of a workload — the
// quantities that predict how hard it is for the scheduling policies
// (tail weight, burstiness, load).
type Profile struct {
	N int
	// Span is the arrival horizon [first, last release].
	Span float64
	// Load is total work / span (per machine at m=1).
	Load float64
	// SizeMean, SizeCV: mean and coefficient of variation of sizes; CV>1
	// indicates heavier-than-exponential variability.
	SizeMean, SizeCV float64
	// SizeP99OverP50 measures tail weight.
	SizeP99OverP50 float64
	// IACV is the coefficient of variation of interarrival times (1 for
	// Poisson; >1 bursty; <1 smooth).
	IACV float64
	// Burstiness is the index of dispersion of arrival counts over 20
	// windows (1 for Poisson; >1 clustered arrivals).
	Burstiness float64
}

// Characterize computes a Profile (zero value for fewer than 2 jobs).
func Characterize(in *core.Instance) Profile {
	p := Profile{N: in.N()}
	if in.N() < 2 {
		return p
	}
	inst := in.Clone()
	inst.Normalize()
	sizes := make([]float64, inst.N())
	rel := make([]float64, inst.N())
	for i, j := range inst.Jobs {
		sizes[i] = j.Size
		rel[i] = j.Release
	}
	p.Span = rel[len(rel)-1] - rel[0]
	if p.Span > 0 {
		p.Load = inst.TotalWork() / p.Span
	}
	p.SizeMean = metrics.Mean(sizes)
	if p.SizeMean > 0 {
		p.SizeCV = metrics.Stddev(sizes) / p.SizeMean
	}
	if p50 := metrics.Percentile(sizes, 50); p50 > 0 {
		p.SizeP99OverP50 = metrics.Percentile(sizes, 99) / p50
	}
	ia := make([]float64, 0, len(rel)-1)
	for i := 1; i < len(rel); i++ {
		ia = append(ia, rel[i]-rel[i-1])
	}
	if m := metrics.Mean(ia); m > 0 {
		p.IACV = metrics.Stddev(ia) / m
	}
	// Index of dispersion of counts over 20 equal windows.
	if p.Span > 0 {
		const windows = 20
		counts := make([]float64, windows)
		for _, r := range rel {
			w := int((r - rel[0]) / p.Span * windows)
			if w >= windows {
				w = windows - 1
			}
			counts[w]++
		}
		if m := metrics.Mean(counts); m > 0 {
			p.Burstiness = metrics.Variance(counts) / m
		}
	}
	return p
}

// String renders the profile as a short multi-line report.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d span=%.4g load=%.3g\n", p.N, p.Span, p.Load)
	fmt.Fprintf(&b, "sizes: mean=%.4g CV=%.3g p99/p50=%.3g\n", p.SizeMean, p.SizeCV, p.SizeP99OverP50)
	fmt.Fprintf(&b, "arrivals: IA-CV=%.3g dispersion=%.3g", p.IACV, p.Burstiness)
	tags := p.tags()
	if len(tags) > 0 {
		fmt.Fprintf(&b, "  [%s]", strings.Join(tags, ", "))
	}
	return b.String()
}

// tags classifies the workload qualitatively.
func (p Profile) tags() []string {
	var tags []string
	switch {
	case p.SizeCV > 1.5:
		tags = append(tags, "heavy-tailed sizes")
	case p.SizeCV < 0.5 && p.N > 1:
		tags = append(tags, "near-uniform sizes")
	}
	if p.IACV > 1.5 || p.Burstiness > 2 {
		tags = append(tags, "bursty arrivals")
	}
	if p.Load > 0.95 {
		tags = append(tags, "overloaded (m=1)")
	}
	sort.Strings(tags)
	return tags
}

// Describe returns a one-line human-readable summary of an instance.
func Describe(in *core.Instance) string {
	if in.N() == 0 {
		return "empty instance"
	}
	return fmt.Sprintf("n=%d, span=[0,%.3g], total work=%.4g, mean size=%.4g",
		in.N(), in.MaxRelease(), in.TotalWork(), in.TotalWork()/float64(in.N()))
}
