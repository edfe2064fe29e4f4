// Package metrics computes the scheduling objectives studied in the paper —
// ℓk-norms of flow time and their k-th powers — together with the fairness
// and variability statistics that motivate them (variance, tails, max flow,
// stretch, Jain's index).
package metrics

import (
	"math"
	"sort"
)

// PowK returns x^k for integer k ≥ 0 using repeated multiplication, which is
// faster and slightly more accurate than math.Pow for the small k used in
// practice (the paper notes k ∈ {1, 2, 3, ∞}).
func PowK(x float64, k int) float64 {
	switch k {
	case 0:
		return 1
	case 1:
		return x
	case 2:
		return x * x
	case 3:
		return x * x * x
	}
	r := 1.0
	b := x
	for e := k; e > 0; e >>= 1 {
		if e&1 == 1 {
			r *= b
		}
		b *= b
	}
	return r
}

// RootK returns x^{1/k} for integer k ≥ 1 — the k-th root that turns a
// power-sum ratio into an ℓk-norm ratio. Negative x (used as a "no value"
// sentinel by ratio code) is passed through unchanged.
func RootK(x float64, k int) float64 {
	if x < 0 || k == 1 {
		return x
	}
	switch k {
	case 2:
		return math.Sqrt(x)
	case 3:
		return math.Cbrt(x)
	}
	return math.Pow(x, 1/float64(k))
}

// KthPowerSum returns Σ_j F_j^k, the objective the paper's analysis bounds
// directly before taking k-th roots.
func KthPowerSum(flows []float64, k int) float64 {
	var s float64
	for _, f := range flows {
		s += PowK(f, k)
	}
	return s
}

// LkNorm returns the ℓk-norm (Σ_j F_j^k)^{1/k} for k ≥ 1.
func LkNorm(flows []float64, k int) float64 {
	if len(flows) == 0 {
		return 0
	}
	if k == 1 {
		return KthPowerSum(flows, 1)
	}
	// Normalize by the max for numerical stability with large k.
	mx := Max(flows)
	if mx == 0 {
		return 0
	}
	var s float64
	for _, f := range flows {
		s += PowK(f/mx, k)
	}
	return mx * math.Pow(s, 1/float64(k))
}

// LInfNorm returns max_j F_j.
func LInfNorm(flows []float64) float64 { return Max(flows) }

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (0 for fewer than 2 values).
// Minimizing the ℓ2-norm of flow time is the paper's proxy for minimizing
// both the mean and the variance of response times.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	var mx float64
	for i, x := range xs {
		if i == 0 || x > mx {
			mx = x
		}
	}
	return mx
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	var mn float64
	for i, x := range xs {
		if i == 0 || x < mn {
			mn = x
		}
	}
	return mn
}

// Percentile returns the p-th percentile (p ∈ [0,100]) using linear
// interpolation between order statistics. Input is not modified.
func Percentile(xs []float64, p float64) float64 {
	return sortedPercentile(sortedCopy(xs), p)
}

// sortedCopy returns an ascending copy of xs, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sortedPercentile is Percentile over s, which must already be ascending.
func sortedPercentile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) ∈ (0, 1]; 1 means
// all values equal. Applied to flow times it quantifies temporal fairness:
// RR's equal sharing should push it toward 1 relative to SRPT.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s, sq float64
	for _, x := range xs {
		s += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return s * s / (float64(len(xs)) * sq)
}

// Stretches returns F_j / p_j for each job (slowdown). flows and sizes must
// have equal length.
func Stretches(flows, sizes []float64) []float64 {
	out := make([]float64, len(flows))
	for i := range flows {
		out[i] = flows[i] / sizes[i]
	}
	return out
}

// Summary bundles the statistics reported by the experiment harness.
type Summary struct {
	N        int
	L1       float64 // total flow time
	MeanFlow float64
	L2       float64 // ℓ2-norm of flow
	L3       float64 // ℓ3-norm of flow
	MaxFlow  float64 // ℓ∞
	Stddev   float64
	P50      float64
	P95      float64
	P99      float64
	Jain     float64
}

// Summarize computes a Summary for the given flow times. It sorts one copy
// of flows for all three percentiles; flows itself is not modified.
func Summarize(flows []float64) Summary {
	sorted := sortedCopy(flows)
	return Summary{
		N:        len(flows),
		L1:       LkNorm(flows, 1),
		MeanFlow: Mean(flows),
		L2:       LkNorm(flows, 2),
		L3:       LkNorm(flows, 3),
		MaxFlow:  Max(flows),
		Stddev:   Stddev(flows),
		P50:      sortedPercentile(sorted, 50),
		P95:      sortedPercentile(sorted, 95),
		P99:      sortedPercentile(sorted, 99),
		Jain:     JainIndex(flows),
	}
}
