package trace

import (
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// jsonNumberLen returns the length of the JSON number (RFC 8259 §6) that b
// starts with, or 0 when it starts with none. It is the grammar alone,
// written as the decoder checked it before numbers were converted in the
// same walk, and serves as the length oracle for scanNumber.
func jsonNumberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		k := skipDigits(b, i+1)
		if k == i+1 {
			return 0
		}
		i = k
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		k := skipDigits(b, i)
		if k == i {
			return 0
		}
		i = k
	}
	return i
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// checkNumber holds parseFloat and parseInt on s to their oracles: the
// length to jsonNumberLen, the float's bits and verdict to
// strconv.ParseFloat(·, 64) and the int's value and verdict to
// strconv.ParseInt(·, 10, 64) within int's range, each on the scanned
// prefix.
func checkNumber(t *testing.T, s string) {
	t.Helper()
	b := []byte(s)
	want := jsonNumberLen(b)
	f, n, ok := parseFloat(b)
	if n != want {
		t.Fatalf("parseFloat(%q): length %d, want %d", s, n, want)
	}
	if want == 0 {
		if ok {
			t.Fatalf("parseFloat(%q) accepted a non-number", s)
		}
	} else {
		wf, err := strconv.ParseFloat(s[:want], 64)
		if ok != (err == nil) {
			t.Fatalf("parseFloat(%q): ok %v, strconv error %v", s, ok, err)
		}
		if ok && math.Float64bits(f) != math.Float64bits(wf) {
			t.Fatalf("parseFloat(%q) = %v (%#x), strconv %v (%#x)", s, f, math.Float64bits(f), wf, math.Float64bits(wf))
		}
	}
	v, n, ok := parseInt(b)
	if n != want {
		t.Fatalf("parseInt(%q): length %d, want %d", s, n, want)
	}
	wantOK := false
	var wv int64
	if want > 0 {
		var err error
		wv, err = strconv.ParseInt(s[:want], 10, 64)
		wantOK = err == nil && int64(int(wv)) == wv
	}
	if ok != wantOK || ok && int64(v) != wv {
		t.Fatalf("parseInt(%q) = %d, %v; strconv %d, %v", s, v, ok, wv, wantOK)
	}
}

// TestScanNumber holds the one-walk number scanner to strconv and the
// grammar oracle over random float64s in each of strconv's decimal forms,
// the classes the Eisel–Lemire path hands back to strconv, the power
// table's ends, int64's ends and the grammar's rejects.
func TestScanNumber(t *testing.T) {
	for _, s := range []string{
		// Exact halfway, and long mantissas past 19 digits.
		"9007199254740993", "9007199254740995", "90071992547409930e-1",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		"0.5000000000000000000000000001", "12345678901234567890", "1234567890123456789",
		"100000000000000000000000", "1.0000000000000000000000",
		// The power table's ends: one inside, one outside each.
		"1e-348", "1e-349", "1e347", "1e348", "9999999999999999999e-348", "9999999999999999999e-349",
		"1e289", "9999999999999999999e289", "9999999999999999999e290",
		// Subnormal, underflow, overflow and zero.
		"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"1e400", "-1e400", "1e-400", "-1e-400", "-0", "0", "-0.0", "0e999", "-0e-999", "0.000000000000000000000000000001",
		"1e99999999999999999999", "1e-99999999999999999999",
		// int64's ends.
		"9223372036854775807", "-9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "18446744073709551615", "18446744073709551616", "99999999999999999999",
		"2147483647", "2147483648", "-2147483648", "-2147483649",
		// The grammar's rejects, whole or as a prefix.
		"01", ".5", "1.", "1e", "+1", "-", "", "-.5", "1.e5", "1e+", "1E-", "0x10", "1_0", "inf", "NaN", "--1", "1.5.5", "1ee5",
	} {
		checkNumber(t, s)
	}
	for _, c := range []struct {
		s    string
		n    int
		f    float64
		isOK bool
	}{
		{"01", 1, 0, true}, {".5", 0, 0, false}, {"1.", 0, 0, false}, {"1e", 0, 0, false},
		{"+1", 0, 0, false}, {"-", 0, 0, false}, {"1e400", 5, 0, false}, {"1e-400", 6, 0, true},
		{"9007199254740993", 16, 9007199254740992, true},
	} {
		f, n, ok := parseFloat([]byte(c.s))
		if n != c.n || ok != c.isOK || ok && f != c.f {
			t.Fatalf("parseFloat(%q) = %v, %d, %v; want %v, %d, %v", c.s, f, n, ok, c.f, c.n, c.isOK)
		}
	}

	r := rand.New(rand.NewPCG(19, 2015))
	for range 5000 {
		x := math.Float64frombits(r.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		checkNumber(t, strconv.FormatFloat(x, 'g', -1, 64))
		checkNumber(t, strconv.FormatFloat(x, 'f', -1, 64))
		for prec := 0; prec <= 24; prec++ {
			checkNumber(t, strconv.FormatFloat(x, 'e', prec, 64))
		}
	}
	// Exact midpoints between adjacent float64s at or above 2⁵³ are
	// integers of at most 20 digits: the halfway cases the fast path must
	// hand to strconv.
	for range 2000 {
		k := uint64(1)<<52 | r.Uint64N(1<<52)
		mid := (2*k + 1) << r.UintN(11)
		checkNumber(t, strconv.FormatUint(mid, 10))
		checkNumber(t, strconv.FormatUint(mid, 10)+"e-"+strconv.Itoa(int(r.UintN(30))))
	}
	// Random decimals across the whole exponent range, and random strings
	// over the grammar's alphabet.
	var sb strings.Builder
	for range 20000 {
		sb.Reset()
		sb.WriteString(strconv.FormatUint(r.Uint64N(1e19), 10))
		sb.WriteString("e")
		sb.WriteString(strconv.Itoa(int(r.IntN(740)) - 370))
		checkNumber(t, sb.String())
		sb.Reset()
		for range r.IntN(12) {
			sb.WriteByte("0123456789-+.eE"[r.IntN(15)])
		}
		checkNumber(t, sb.String())
	}
}

// FuzzScanNumber holds parseFloat and parseInt to strconv and the grammar
// oracle on arbitrary bytes.
func FuzzScanNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1", "-12", "0.1893877631407589", "2.5E-1", "1e1",
		"9007199254740993", "1.00000000000000011102230246251565404236316680908203125",
		"4.9e-324", "2.4703282292062328e-324", "1.7976931348623159e308", "1e400", "1e-400", "0e999",
		"9223372036854775808", "-9223372036854775808", "01", ".5", "1.", "1e", "+1", "-",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkNumber(t, s)
	})
}

// TestPowersOfTen checks each row of the computed power table against its
// definition, by multiplication where powersOfTen divides: the row has its
// top bit set, and for q ≥ 0 it is 10^q's top 128 bits, for q < 0 the
// largest r with r·10^−q ≤ 2^k.
func TestPowersOfTen(t *testing.T) {
	ten := big.NewInt(10)
	for q := pow10Min; q <= pow10Max; q++ {
		hi, lo := pow10[q-pow10Min][0], pow10[q-pow10Min][1]
		if hi>>63 != 1 {
			t.Fatalf("10^%d: row %#x %#x is not normalized", q, hi, lo)
		}
		row := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		row.Or(row, new(big.Int).SetUint64(lo))
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(q, -q))), nil)
		if q >= 0 {
			// 10^q = row·2^s + rest with 0 ≤ rest < 2^s (s may be negative).
			s := p.BitLen() - 128
			if s <= 0 {
				if new(big.Int).Lsh(p, uint(-s)).Cmp(row) != 0 {
					t.Fatalf("10^%d: row is not the exact shifted power", q)
				}
				continue
			}
			lower := new(big.Int).Lsh(row, uint(s))
			upper := new(big.Int).Lsh(new(big.Int).Add(row, big.NewInt(1)), uint(s))
			if lower.Cmp(p) > 0 || upper.Cmp(p) <= 0 {
				t.Fatalf("10^%d: row is not the truncated top 128 bits", q)
			}
			continue
		}
		two := new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()+127))
		lower := new(big.Int).Mul(row, p)
		upper := new(big.Int).Mul(new(big.Int).Add(row, big.NewInt(1)), p)
		if lower.Cmp(two) > 0 || upper.Cmp(two) <= 0 {
			t.Fatalf("10^%d: row is not the truncated top 128 bits", q)
		}
	}
}
