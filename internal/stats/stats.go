// Package stats provides the deterministic randomness and the summary
// statistics used by the workload generators and the experiment harness.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
)

// NewRNG returns a deterministic PCG-backed generator for the given seed.
// Every experiment in the harness derives all randomness from an explicit
// seed so tables and CSV series are exactly reproducible.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// ApproxEqual reports whether a and b agree within tol under the mixed
// absolute/relative reading |a−b| ≤ tol·(1 + max(|a|, |b|)) — absolute near
// zero, relative for large magnitudes (the same contract as the
// differential harness's tolerance check). It is one of rrlint's approved
// float-comparison helpers: code outside the harness that needs float
// equality should call it instead of == (see DESIGN.md §11, floateq).
// NaN operands never compare equal.
func ApproxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// Sample accumulates replicated measurements of one quantity.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

// Std returns the sample (n−1) standard deviation (0 for fewer than 2).
func (s *Sample) Std() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var t float64
	for _, x := range s.xs {
		d := x - m
		t += d * d
	}
	return math.Sqrt(t / float64(n-1))
}

// tCrit95 holds two-sided 95% Student-t critical values for df = 1..30;
// beyond 30 the normal value 1.96 is used.
var tCrit95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// (0 for fewer than 2 observations).
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return t * s.Std() / math.Sqrt(float64(n))
}

// String renders "mean ± ci (n=..)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.N())
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi); values outside are
// clamped into the boundary bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with the given number of bins ≥ 1.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records a value.
func (h *Histogram) Add(x float64) {
	b := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.total++
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int { return h.total }

// Render draws an ASCII histogram with the given maximum bar width.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	binW := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "[%8.3g,%8.3g) %6d %s\n", h.Lo+float64(i)*binW, h.Lo+float64(i+1)*binW, c, strings.Repeat("#", bar))
	}
	return b.String()
}

// Exp draws an exponential variate with the given mean.
func Exp(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Pareto draws a Pareto(α, xm) variate via inverse CDF: xm·U^{−1/α}.
func Pareto(rng *rand.Rand, alpha, xm float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm * math.Pow(u, -1/alpha)
}

// BoundedPareto draws Pareto(α, xm) truncated (by resampling) to at most hi.
func BoundedPareto(rng *rand.Rand, alpha, xm, hi float64) float64 {
	for i := 0; i < 64; i++ {
		if v := Pareto(rng, alpha, xm); v <= hi {
			return v
		}
	}
	return hi
}

// FitPowerLaw least-squares fits log y = a + b·log x and returns the
// exponent b — used to classify ratio-growth curves (b ≈ 0 ⇒ bounded).
// Points with non-positive coordinates are skipped; fewer than two usable
// points give 0.
func FitPowerLaw(xs, ys []float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for i := range xs {
		if !(xs[i] > 0) || !(ys[i] > 0) {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		n++
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	if n < 2 {
		return 0
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
