package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSampleMeanStd(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N=%d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean %v", s.Mean())
	}
	// Sample std with n−1: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std()-want) > 1e-12 {
		t.Fatalf("std %v, want %v", s.Std(), want)
	}
	if s.CI95() <= 0 {
		t.Fatalf("CI95 %v", s.CI95())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String: %s", s.String())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Std() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample should be zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Std() != 0 || s.CI95() != 0 {
		t.Fatal("single sample: mean only")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(100)
	same := true
	a2 := NewRNG(99)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestExpMean(t *testing.T) {
	rng := NewRNG(7)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += Exp(rng, 3)
	}
	if m := sum / n; math.Abs(m-3) > 0.05 {
		t.Fatalf("exp mean %v, want 3", m)
	}
}

func TestParetoTail(t *testing.T) {
	rng := NewRNG(8)
	count := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := Pareto(rng, 2, 1)
		if v < 1 {
			t.Fatalf("pareto below xm: %v", v)
		}
		if v > 10 {
			count++
		}
	}
	// P(X > 10) = (1/10)^2 = 0.01.
	frac := float64(count) / n
	if frac < 0.007 || frac > 0.013 {
		t.Fatalf("tail fraction %v, want ≈ 0.01", frac)
	}
}

func TestBoundedPareto(t *testing.T) {
	rng := NewRNG(9)
	for i := 0; i < 50000; i++ {
		v := BoundedPareto(rng, 1.1, 1, 100)
		if v < 1 || v > 100 {
			t.Fatalf("bounded pareto out of range: %v", v)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0.5, 3, 3.5, 9, 100} {
		h.Add(x)
	}
	if h.Total() != 6 {
		t.Fatalf("total %d", h.Total())
	}
	if h.Counts[0] != 2 { // -1 clamped + 0.5
		t.Fatalf("bin 0 count %d", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9 + 100 clamped
		t.Fatalf("bin 4 count %d", h.Counts[4])
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Fatal("render missing bars")
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 5 {
		t.Fatalf("render lines: %q", out)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(5, 5, 0) // hi<=lo and bins<1 both corrected
	h.Add(5)
	if h.Total() != 1 || len(h.Counts) != 1 {
		t.Fatalf("degenerate histogram: %+v", h)
	}
}

func TestPlotBasics(t *testing.T) {
	s := []Series{
		{Name: "a", X: []float64{1, 2, 3}, Y: []float64{1, 4, 9}},
		{Name: "b", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}},
	}
	out := Plot(s, 40, 10, false, false)
	for _, want := range []string{"*", "o", "a", "b", "x ∈ [1, 3]", "y ∈ [1, 9]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10+3 {
		t.Fatalf("plot has %d lines", len(lines))
	}
}

func TestPlotLogAxes(t *testing.T) {
	s := []Series{{Name: "pow", X: []float64{1, 10, 100}, Y: []float64{2, 20, 200}}}
	out := Plot(s, 30, 8, true, true)
	if !strings.Contains(out, "(log)") {
		t.Fatalf("log tag missing:\n%s", out)
	}
}

func TestPlotDegenerate(t *testing.T) {
	if out := Plot(nil, 30, 8, false, false); out != "(no finite points)\n" {
		t.Fatalf("empty plot: %q", out)
	}
	s := []Series{{Name: "nan", X: []float64{math.NaN()}, Y: []float64{1}}}
	if out := Plot(s, 30, 8, false, false); out != "(no finite points)\n" {
		t.Fatalf("nan plot: %q", out)
	}
	// Constant series must not divide by zero.
	c := []Series{{Name: "const", X: []float64{1, 2}, Y: []float64{5, 5}}}
	if out := Plot(c, 30, 8, false, false); !strings.Contains(out, "const") {
		t.Fatalf("const plot: %q", out)
	}
}

func TestFitPowerLaw(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	ys := []float64{3, 6, 12, 24} // y = 3x → exponent 1
	if b := FitPowerLaw(xs, ys); math.Abs(b-1) > 1e-9 {
		t.Fatalf("exponent %v, want 1", b)
	}
	// Non-positive points are skipped.
	if b := FitPowerLaw([]float64{0, 1, 2}, []float64{5, 2, 4}); math.Abs(b-1) > 1e-9 {
		t.Fatalf("skip-invalid exponent %v", b)
	}
	if b := FitPowerLaw([]float64{1}, []float64{2}); b != 0 {
		t.Fatalf("degenerate %v", b)
	}
}
