package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func TestPowK(t *testing.T) {
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{2, 0, 1}, {2, 1, 2}, {3, 2, 9}, {2, 3, 8}, {2, 10, 1024}, {1.5, 4, 5.0625},
	}
	for _, c := range cases {
		approx(t, PowK(c.x, c.k), c.want, 1e-12, "PowK")
	}
}

func TestPowKMatchesMathPow(t *testing.T) {
	if err := quick.Check(func(xRaw float64, kRaw uint8) bool {
		x := math.Abs(math.Mod(xRaw, 10))
		if math.IsNaN(x) {
			x = 1
		}
		k := int(kRaw % 8)
		want := math.Pow(x, float64(k))
		got := PowK(x, k)
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNorms(t *testing.T) {
	flows := []float64{3, 4}
	approx(t, LkNorm(flows, 1), 7, 1e-12, "L1")
	approx(t, LkNorm(flows, 2), 5, 1e-12, "L2 (3-4-5)")
	approx(t, LInfNorm(flows), 4, 1e-12, "LInf")
	approx(t, KthPowerSum(flows, 2), 25, 1e-12, "sum of squares")
	approx(t, KthPowerSum(flows, 3), 27+64, 1e-12, "sum of cubes")
}

func TestNormsEmptyAndZero(t *testing.T) {
	approx(t, LkNorm(nil, 2), 0, 0, "empty L2")
	approx(t, LkNorm([]float64{0, 0}, 3), 0, 0, "zero L3")
}

// Lk norms are non-increasing in k and at least the max: L1 ≥ L2 ≥ L3 ≥ L∞.
func TestNormMonotonicityInK(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		flows := make([]float64, len(raw))
		for i, f := range raw {
			flows[i] = math.Abs(math.Mod(f, 1000))
			if math.IsNaN(flows[i]) {
				flows[i] = 1
			}
		}
		l1, l2, l3, li := LkNorm(flows, 1), LkNorm(flows, 2), LkNorm(flows, 3), LInfNorm(flows)
		tol := 1e-9 * (1 + l1)
		return l1 >= l2-tol && l2 >= l3-tol && l3 >= li-tol
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "mean")
	approx(t, Variance(xs), 4, 1e-12, "variance")
	approx(t, Stddev(xs), 2, 1e-12, "stddev")
	approx(t, Max(xs), 9, 0, "max")
	approx(t, Min(xs), 2, 0, "min")
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, Percentile(xs, 0), 1, 1e-12, "p0")
	approx(t, Percentile(xs, 50), 3, 1e-12, "p50")
	approx(t, Percentile(xs, 100), 5, 1e-12, "p100")
	approx(t, Percentile(xs, 25), 2, 1e-12, "p25")
	approx(t, Percentile(xs, 10), 1.4, 1e-12, "p10 interpolated")
	approx(t, Percentile(nil, 50), 0, 0, "empty")
	// Input must not be reordered.
	ys := []float64{5, 1, 3}
	Percentile(ys, 50)
	if ys[0] != 5 || ys[1] != 1 || ys[2] != 3 {
		t.Fatal("Percentile mutated input")
	}
}

func TestJainIndex(t *testing.T) {
	approx(t, JainIndex([]float64{1, 1, 1, 1}), 1, 1e-12, "equal → 1")
	// One job hogging: (1+0+0+0)²/(4·1) = 0.25.
	approx(t, JainIndex([]float64{1, 0, 0, 0}), 0.25, 1e-12, "max unfairness → 1/n")
	approx(t, JainIndex(nil), 1, 0, "empty")
}

func TestJainIndexRange(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, len(raw))
		for i, x := range raw {
			xs[i] = math.Abs(math.Mod(x, 100))
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		j := JainIndex(xs)
		return j > 0 && j <= 1+1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStretches(t *testing.T) {
	s := Stretches([]float64{4, 9}, []float64{2, 3})
	approx(t, s[0], 2, 1e-12, "stretch 0")
	approx(t, s[1], 3, 1e-12, "stretch 1")
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 4})
	if s.N != 2 {
		t.Fatalf("N=%d", s.N)
	}
	approx(t, s.L1, 7, 1e-12, "L1")
	approx(t, s.L2, 5, 1e-12, "L2")
	approx(t, s.MaxFlow, 4, 1e-12, "max")
	approx(t, s.MeanFlow, 3.5, 1e-12, "mean")

	// The percentiles come from one sorted copy: bit-equal to Percentile's,
	// with the input left in its original, unsorted order.
	rng := rand.New(rand.NewPCG(3, 4))
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	orig := append([]float64(nil), xs...)
	s = Summarize(xs)
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("Summarize changed its input at %d: %v, was %v", i, xs[i], orig[i])
		}
	}
	if sort.Float64sAreSorted(xs) {
		t.Fatal("Summarize sorted its input")
	}
	for _, c := range []struct {
		name string
		got  float64
		p    float64
	}{{"P50", s.P50, 50}, {"P95", s.P95, 95}, {"P99", s.P99, 99}} {
		if want := Percentile(xs, c.p); math.Float64bits(c.got) != math.Float64bits(want) {
			t.Errorf("%s = %v, Percentile gives %v", c.name, c.got, want)
		}
	}
}

func TestLkNormLargeKStable(t *testing.T) {
	// Large magnitudes with large k must not overflow thanks to max
	// normalization.
	flows := []float64{1e8, 2e8, 3e8}
	got := LkNorm(flows, 20)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("L20 overflowed: %v", got)
	}
	if got < 3e8 || got > 3.2e8 {
		t.Fatalf("L20 = %v, want slightly above max 3e8", got)
	}
}
