package metrics

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
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

	// The percentiles come from one selection over one copy: bit-equal to
	// Percentile's, with the input left in its original, unsorted order.
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

// sortedCopy returns an ascending copy of xs, leaving xs as it was. With
// sortedPercentile it is the oracle for the selection behind Percentile
// and Summarize.
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

// oracleSummary is Summarize composed from the functions its fields stand
// for, with the percentiles read from sorted, an ascending copy of flows.
func oracleSummary(flows, sorted []float64) Summary {
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

// sameBits reports whether got matches the oracle's want bit for bit. NaNs
// match as NaN, since the payload at a rank is the sort's arbitrary pick.
// With zeroTie, ±0 match as numbers: when the input holds both zeros, which
// one lands at a rank that is read is an arbitrary pick too.
func sameBits(got, want float64, zeroTie bool) bool {
	return math.Float64bits(got) == math.Float64bits(want) ||
		math.IsNaN(got) && math.IsNaN(want) ||
		zeroTie && got == 0 && want == 0
}

// holdsBothZeros reports whether xs holds a −0 and a +0.
func holdsBothZeros(xs []float64) bool {
	var neg, pos bool
	for _, x := range xs {
		if x == 0 {
			neg = neg || math.Signbit(x)
			pos = pos || !math.Signbit(x)
		}
	}
	return neg && pos
}

// selectionPercentiles ascend, reach past both ends of [0, 100] and hit
// whole and fractional ranks.
var selectionPercentiles = []float64{-1, 0, 0.1, 1, 10, 25, 50, 50, 75, 90, 95, 99, 99.9, 100, 101}

// checkSelection requires Summarize, Percentile at each of ps, and one
// selectPercentiles call over every selectionPercentiles to match the
// sorted-copy oracle on xs, and xs to come back unchanged.
func checkSelection(t *testing.T, name string, xs, ps []float64) {
	t.Helper()
	orig := slices.Clone(xs)
	zeroTie := holdsBothZeros(xs)
	sorted := sortedCopy(xs)
	got, want := Summarize(xs), oracleSummary(xs, sorted)
	if got.N != want.N {
		t.Errorf("%s: Summarize N = %d, want %d", name, got.N, want.N)
	}
	for _, f := range []struct {
		field     string
		got, want float64
		zeroTie   bool
	}{
		{"L1", got.L1, want.L1, false},
		{"MeanFlow", got.MeanFlow, want.MeanFlow, false},
		{"L2", got.L2, want.L2, false},
		{"L3", got.L3, want.L3, false},
		{"MaxFlow", got.MaxFlow, want.MaxFlow, false},
		{"Stddev", got.Stddev, want.Stddev, false},
		{"P50", got.P50, want.P50, zeroTie},
		{"P95", got.P95, want.P95, zeroTie},
		{"P99", got.P99, want.P99, zeroTie},
		{"Jain", got.Jain, want.Jain, false},
	} {
		if !sameBits(f.got, f.want, f.zeroTie) {
			t.Errorf("%s (n=%d): Summarize %s = %v (%#x), oracle %v (%#x)", name, len(xs), f.field,
				f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	for _, p := range ps {
		if g, w := Percentile(xs, p), sortedPercentile(sorted, p); !sameBits(g, w, zeroTie) {
			t.Errorf("%s (n=%d): Percentile(%v) = %v (%#x), oracle %v (%#x)", name, len(xs), p,
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	all := slices.Clone(selectionPercentiles)
	selectPercentiles(slices.Clone(xs), all)
	for i, p := range selectionPercentiles {
		if w := sortedPercentile(sorted, p); !sameBits(all[i], w, zeroTie) {
			t.Errorf("%s (n=%d): one selection for all ps: p%v = %v, oracle %v", name, len(xs), p, all[i], w)
		}
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s: input changed at %d: %v, was %v", name, i, xs[i], orig[i])
		}
	}
}

// medianOfThreeKiller returns n values on which selecting the median rank
// keeps nearly the whole range in play round after round, and how many
// rounds of narrow that selection runs over ranges longer than
// insertionMax. It is McIlroy's adversary driven through narrow itself:
// every value starts undecided, above all values decided so far, and before
// each round the range's first and middle elements are decided as the next
// smallest values, so the median of three is one of the range's few
// smallest and each round drops only a few elements.
func medianOfThreeKiller(n int) (xs []float64, rounds int) {
	const undecided = 1 << 40 // plus the element's index in xs
	s := make([]float64, n)
	for i := range s {
		s[i] = undecided + float64(i)
	}
	xs = slices.Clone(s)
	next := 0.0
	decide := func(i int) {
		if s[i] >= undecided {
			xs[int(s[i]-undecided)] = next
			s[i] = next
			next++
		}
	}
	l, r, k := 0, n, (n-1)/2 // k: the rank Percentile(·, 50) reads first
	for ; r-l > insertionMax; rounds++ {
		decide(l)
		decide(l + (r-l)/2)
		l, r = narrow(s, l, r, k)
	}
	return xs, rounds
}

// selectionInputs returns the input classes the selection is held to at
// length n.
func selectionInputs(rng *rand.Rand, n int) []struct {
	name string
	xs   []float64
} {
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 1, -1, 2.5}
	zeros := []float64{0, negZero, 1}
	cases := []struct {
		name string
		xs   []float64
	}{
		{"exp", gen(func(int) float64 { return rng.ExpFloat64() })},
		{"all-equal", gen(func(int) float64 { return 3.25 })},
		{"sorted", gen(func(i int) float64 { return float64(i) })},
		{"reversed", gen(func(i int) float64 { return float64(n - i) })},
		{"few-distinct", gen(func(int) float64 { return float64(rng.IntN(4)) })},
		{"nan-inf", gen(func(int) float64 { return specials[rng.IntN(len(specials))] })},
		{"all-nan", gen(func(int) float64 { return math.NaN() })},
		{"organ-pipe", gen(func(i int) float64 { return float64(min(i, n-1-i)) })},
		{"signed-zeros", gen(func(int) float64 { return zeros[rng.IntN(len(zeros))] })},
	}
	killer, _ := medianOfThreeKiller(n)
	return append(cases, struct {
		name string
		xs   []float64
	}{"median-of-three-killer", killer})
}

// TestSelectionMatchesSortedOracle holds Summarize and Percentile to the
// sorted-copy oracle, bit for bit, over every input class at lengths on
// both sides of insertionMax.
func TestSelectionMatchesSortedOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 23))
		for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 16, 17, 18, 33, 100, 1000, 2500} {
			for _, c := range selectionInputs(rng, n) {
				checkSelection(t, c.name, c.xs, selectionPercentiles)
			}
		}
	}
}

// TestSelectionKillerFallsBack builds a median-of-three killer long enough
// that the median's selection is still open after 2·⌈log₂ n⌉ rounds, so it
// ends in slices.Sort, and requires the oracle's results from it.
func TestSelectionKillerFallsBack(t *testing.T) {
	const n = 2000
	xs, rounds := medianOfThreeKiller(n)
	if limit := 2 * bits.Len(uint(n-1)); rounds <= limit {
		t.Fatalf("killer keeps the selection open for %d rounds, fallback starts after %d", rounds, limit)
	}
	checkSelection(t, "median-of-three-killer", xs, selectionPercentiles)
}

var summarySink Summary

// TestSummarizeAllocatesOnlyTheCopy pins Summarize at one allocation: the
// copy the selection reorders.
func TestSummarizeAllocatesOnlyTheCopy(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	if got := testing.AllocsPerRun(20, func() { summarySink = Summarize(xs) }); got != 1 {
		t.Fatalf("Summarize allocates %v times per call, want 1", got)
	}
}

// fuzzSpecials are the values a byte in [0xE0, 0xFF) decodes to.
var fuzzSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64,
	-math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300, 0.5, 1.5,
}

// decodeFuzzValues turns fuzz bytes into at most 256 values: a byte below
// 0xE0 is a small integer (ties are likely), one in [0xE0, 0xFF) a special
// value, and 0xFF takes the next 8 bytes as raw float64 bits.
func decodeFuzzValues(data []byte) []float64 {
	var xs []float64
	for len(data) > 0 && len(xs) < 256 {
		b := data[0]
		data = data[1:]
		switch {
		case b < 0xE0:
			xs = append(xs, float64(b)-100)
		case b < 0xFF:
			xs = append(xs, fuzzSpecials[int(b-0xE0)%len(fuzzSpecials)])
		case len(data) >= 8:
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
	}
	return xs
}

// FuzzPercentiles holds Summarize and Percentile to the sorted-copy oracle
// on arbitrary values and percentiles, bit for bit up to NaN payloads and
// ±0 ties.
func FuzzPercentiles(f *testing.F) {
	pipe := make([]byte, 64)
	for i := range pipe {
		pipe[i] = byte(min(i, 63-i))
	}
	// The killer's values are distinct; their ranks keep its order in bytes.
	killer, _ := medianOfThreeKiller(64)
	order := sortedCopy(killer)
	kb := make([]byte, len(killer))
	for i, x := range killer {
		kb[i] = byte(sort.SearchFloat64s(order, x))
	}
	f.Add([]byte{}, 50.0)
	f.Add([]byte{7}, 99.0)
	f.Add([]byte{3, 1, 2}, 95.0)
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 50.0)
	f.Add([]byte{0xE0, 1, 0xE1, 0xE2, 0xE3, 0xE4, 2, 0xE0}, 25.0)
	f.Add(append([]byte{0xFF, 1, 0, 0, 0, 0, 0, 0xF8, 0x7F}, 1, 2, 3), 60.0)
	f.Add(pipe, 99.9)
	f.Add(kb, 50.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		if math.IsNaN(p) {
			return // no rank: both the oracle and Percentile index out of range
		}
		checkSelection(t, "fuzz", decodeFuzzValues(data), []float64{p})
	})
}
