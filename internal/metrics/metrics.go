// Package metrics computes the scheduling objectives studied in the paper —
// ℓk-norms of flow time and their k-th powers — together with the fairness
// and variability statistics that motivate them (variance, tails, max flow,
// stretch, Jain's index).
package metrics

import (
	"math"
	"math/bits"
	"slices"
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
	ps := []float64{p}
	selectPercentiles(append([]float64(nil), xs...), ps)
	return ps[0]
}

// selectPercentiles replaces each ps[i], which must ascend, with the
// ps[i]-th percentile of s: linear interpolation between the order
// statistics at rank p/100·(n−1), read as from a copy of s that
// sort.Float64s sorted. It finds those order statistics by selection and
// reorders s to do so.
func selectPercentiles(s, ps []float64) {
	n := len(s)
	if n == 0 {
		clear(ps)
		return
	}
	// NaNs go first, where sort.Float64s puts them. From here on s[:done]
	// holds the done lowest ranks, s[done-1] holds rank done−1 itself, and
	// s[done:] holds no NaN.
	done := 0
	for i, x := range s {
		if math.IsNaN(x) {
			s[i], s[done] = s[done], x
			done++
		}
	}
	for i, p := range ps {
		lo, hi, frac := 0, 0, 0.0
		switch {
		case p <= 0:
		case p >= 100:
			lo, hi = n-1, n-1
		default:
			pos := p / 100 * float64(n-1)
			lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
			frac = pos - float64(lo)
		}
		if lo >= done {
			selectRank(s[done:], lo-done)
			done = lo + 1
		}
		if lo == hi {
			ps[i] = s[lo]
			continue
		}
		// Rank lo+1 is the least of the ranks above lo. The plain loop
		// beats slices.Min, whose NaN checks cost Summarize 6–30% on
		// 20,000 flows.
		up := s[lo+1]
		for _, x := range s[lo+2:] {
			if x < up {
				up = x
			}
		}
		ps[i] = s[lo]*(1-frac) + up*frac
	}
}

// insertionMax is the range length at or below which selectRank stops
// partitioning and sorts by insertion.
const insertionMax = 16

// selectRank moves the element of rank k (0-based, ascending) to s[k], with
// no larger element before it and no smaller one after it. s must hold no
// NaN. Each round of narrow shrinks the range that holds rank k; a range
// of at most insertionMax elements is sorted by insertion, and one still
// open after 2·⌈log₂ n⌉ rounds goes to slices.Sort, so no input costs more
// than O(n log n).
func selectRank(s []float64, k int) {
	l, r := 0, len(s)
	for rounds := 2 * bits.Len(uint(len(s)-1)); r-l > insertionMax; rounds-- {
		if rounds == 0 {
			slices.Sort(s[l:r])
			return
		}
		l, r = narrow(s, l, r, k)
	}
	for i := l + 1; i < r; i++ {
		for j := i; j > l && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// narrow is one round of selectRank over s[l:r], which holds rank k. It
// partitions the range around the median of its first, middle and last
// elements and returns the part that holds rank k, or the empty range at k
// once s[k] holds it. Only when no element is below the pivot does it make
// a second pass that moves the pivot's ties forward, so a run of equal
// values costs one pass, not one round per value.
func narrow(s []float64, l, r, k int) (int, int) {
	pivot := medianOfThree(s[l], s[l+(r-l)/2], s[r-1])
	lt := l + moveBelow(s[l:r], pivot)
	switch {
	case k < lt:
		return l, lt
	case lt > l:
		return lt, r
	}
	le := l + moveAtMost(s[l:r], pivot)
	if k < le {
		return k, k
	}
	return le, r
}

// medianOfThree returns the median of a, b and c.
func medianOfThree(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = max(a, c)
	}
	return b
}

// moveBelow moves the elements of s below pivot to its front and returns
// their count (Lomuto's scheme). Every element is swapped and the count
// grows by a compare result, not a branch, which random data would
// mispredict half the time.
func moveBelow(s []float64, pivot float64) int {
	n := 0
	for i, x := range s {
		s[i] = s[n]
		s[n] = x
		inc := 0
		if x < pivot {
			inc = 1
		}
		n += inc
	}
	return n
}

// moveAtMost is moveBelow for the elements at most pivot.
func moveAtMost(s []float64, pivot float64) int {
	n := 0
	for i, x := range s {
		s[i] = s[n]
		s[n] = x
		inc := 0
		if x <= pivot {
			inc = 1
		}
		n += inc
	}
	return n
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

// Summarize computes a Summary for the given flow times in two passes over
// flows and one selection over a copy; flows itself is not modified. Every
// field is bit-identical to the function it stands for (LkNorm, Mean, Max,
// Stddev, Percentile, JainIndex): each accumulator keeps that function's
// expression and index order.
func Summarize(flows []float64) Summary {
	n := len(flows)
	out := Summary{N: n, Jain: 1}
	if n == 0 {
		return out
	}
	// Pass 1: the max that normalizes LkNorm, Σx for LkNorm(·, 1), Mean
	// and JainIndex, and JainIndex's Σx².
	var mx, sum, sq float64
	for i, x := range flows {
		if i == 0 || x > mx {
			mx = x
		}
		sum += x
		sq += x * x
	}
	mean := sum / float64(n)
	// Pass 2: LkNorm's Σ(x/max)² and Σ(x/max)³, and Variance's Σ(x−mean)².
	var s2, s3, dev float64
	for _, x := range flows {
		r := x / mx
		s2 += r * r
		s3 += r * r * r
		d := x - mean
		dev += d * d
	}
	out.L1, out.MeanFlow, out.MaxFlow = sum, mean, mx
	if mx != 0 {
		out.L2 = mx * math.Pow(s2, 1.0/2)
		out.L3 = mx * math.Pow(s3, 1.0/3)
	}
	if n >= 2 {
		out.Stddev = math.Sqrt(dev / float64(n))
	}
	if sq != 0 {
		out.Jain = sum * sum / (float64(n) * sq)
	}
	ps := []float64{50, 95, 99}
	selectPercentiles(append([]float64(nil), flows...), ps)
	out.P50, out.P95, out.P99 = ps[0], ps[1], ps[2]
	return out
}
