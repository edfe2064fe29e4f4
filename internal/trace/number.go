package trace

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// This file converts the numbers of a trace line in the walk that checks
// their grammar. One number grammar serves both formats: an NDJSON value
// and a CSV field are each one JSON number (RFC 8259 §6),
//
//	number = [ "-" ] int [ frac ] [ exp ]
//	int    = "0" / digit1-9 *digit
//	frac   = "." 1*digit
//	exp    = ( "e" / "E" ) [ "-" / "+" ] 1*digit
//
// so "01", ".5", "1.", "1e", "+1" and "-" are not numbers. scanNumber walks
// that grammar once, collecting the significant digits as an integer and
// the decimal exponent. parseFloat converts them with the Eisel–Lemire
// algorithm (Lemire, "Number Parsing at a Gigabyte per Second", 2021; the
// walk-through at https://nigeltao.github.io/blog/2020/eisel-lemire.html),
// the same algorithm strconv.ParseFloat runs. Eisel–Lemire returns the
// correctly rounded float64 whenever it decides one, as ParseFloat always
// does, so the bits agree. What it cannot settle goes to
// strconv.ParseFloat on the same bytes, which decides bits and verdict:
//
//   - more than 19 significant digits (1.0000000000000000000001);
//   - a decimal exponent outside the power table (1e400, 1e-400);
//   - a value too close to halfway between two float64s to decide;
//   - a result that is subnormal or overflows (4.9e-324, 1.8e308).

// decimal is what one walk over a JSON number leaves: the number is
// exactly ±man·10^exp unless trunc is set.
type decimal struct {
	man     uint64 // the significant digits, when there are at most maxDigits
	exp     int    // decimal exponent of man's last digit
	neg     bool
	trunc   bool // more than maxDigits significant digits, so man may have wrapped
	fracExp bool // the number has a fraction or an exponent part
}

// maxDigits is how many decimal digits a uint64 holds whatever they are.
const maxDigits = 19

// scanNumber walks the JSON number that b starts with and returns it with
// its length, or n = 0 when b starts with none. After a leading zero the
// integer part ends, so "01" scans as "0" and the caller rejects the stray
// "1". Every digit goes into man unchecked and the significant ones are
// counted, so the digit loops carry no overflow test.
func scanNumber(b []byte) (d decimal, n int) {
	i := 0
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	var man uint64
	nd := 0 // significant digits
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		nd = i - start
	default:
		return d, 0
	}
	exp := 0
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		if nd == 0 { // zeros before the first nonzero digit are not significant
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		sig := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == start {
			return d, 0
		}
		nd += i - sig
		exp = start - i
		d.fracExp = true
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		d.fracExp = true
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // saturate: past the table either way, and no overflow
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return d, 0
		}
		if neg {
			e = -e
		}
		exp += e
	}
	d.man, d.exp, d.trunc = man, exp, nd > maxDigits
	return d, i
}

// parseFloat converts the JSON number that b starts with as
// strconv.ParseFloat(s, 64) converts it: f has ParseFloat's bits and ok
// its verdict (false only on a range error). n is the number's length, 0
// when b starts with none.
func parseFloat(b []byte) (f float64, n int, ok bool) {
	d, n := scanNumber(b)
	if n == 0 {
		return 0, 0, false
	}
	if !d.trunc {
		if f, ok := eiselLemire(d.man, d.exp, d.neg); ok {
			return f, n, true
		}
	}
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	return f, n, err == nil
}

// parseInt converts the JSON number that b starts with as
// strconv.ParseInt(s, 10, 64) converts it, with int's range on top (the
// check encoding/json and strconv.Atoi make on a 32-bit GOARCH): ok is
// false unless the number is an integer literal in int's range. n is the
// number's length, 0 when b starts with none. The grammar admits no
// leading zeros, so an integer longer than maxDigits digits (trunc) is at
// least 10^19, past int64, and every integer is settled here.
func parseInt(b []byte) (v int, n int, ok bool) {
	d, n := scanNumber(b)
	if n == 0 || d.fracExp || d.trunc {
		return 0, n, false
	}
	limit := uint64(math.MaxInt64)
	if d.neg {
		limit++
	}
	if d.man > limit {
		return 0, n, false
	}
	x := int64(d.man) // 2⁶³ wraps to MinInt64, which negation keeps
	if d.neg {
		x = -x
	}
	v = int(x)
	return v, n, int64(v) == x
}

// The power table covers the decimal exponents whose products with a
// 19-digit mantissa can be finite, nonzero float64s, with strconv's margin.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10 holds {hi, lo}: the top 128 bits of 10^q for q in
// [pow10Min, pow10Max], truncated, at index q − pow10Min.
var pow10 = powersOfTen()

// powersOfTen computes the power table exactly with math/big. For q ≥ 0,
// 10^q is an integer and its top 128 bits are a shift; for q < 0 they are
// ⌊2^k / 10^−q⌋, with k the bit length of 10^−q plus 127 so that the
// quotient lies in [2^127, 2^128).
func powersOfTen() *[pow10Max - pow10Min + 1][2]uint64 {
	var t [pow10Max - pow10Min + 1][2]uint64
	var buf [16]byte
	set := func(q int, x *big.Int) {
		x.FillBytes(buf[:])
		t[q-pow10Min] = [2]uint64{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}
	}
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^|q|
	top := new(big.Int)
	for q := 0; q <= pow10Max; q++ {
		if l := p.BitLen(); l > 128 {
			top.Rsh(p, uint(l-128))
		} else {
			top.Lsh(p, uint(128-l))
		}
		set(q, top)
		p.Mul(p, ten)
	}
	p.SetInt64(1)
	for q := -1; q >= pow10Min; q-- {
		p.Mul(p, ten)
		top.Lsh(top.SetInt64(1), uint(p.BitLen()+127))
		set(q, top.Quo(top, p))
	}
	return &t
}

// eiselLemire returns the float64 nearest to ±man·10^exp10 (ties to even)
// when it can decide it from the 128-bit power of ten, and ok = false when
// it cannot: exp10 outside the table, a product too close to halfway, or a
// result that is subnormal or not finite. The comments name the steps of
// the blog walk-through cited at the top of the file.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	// Normalization: shift man's top bit to bit 63 and estimate the biased
	// binary exponent; 217706/2^16 ≈ log2(10).
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// Multiplication by the high 64 bits of the power.
	pw := &pow10[exp10-pow10Min]
	xHi, xLo := bits.Mul64(man, pw[0])

	// Wider approximation: when the low bits leave the rounding in doubt,
	// bring in the power's next 64 bits.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pw[1])
		hi, lo := xHi, xLo+yHi
		if lo < xLo {
			hi++
		}
		if hi&0x1FF == 0x1FF && lo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = hi, lo
	}

	// Shifting to 54 bits.
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Half-way ambiguity: an exact tie the truncated power cannot resolve.
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// From 54 to 53 bits, rounding half to even.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 or a wrapped negative means subnormal, 0x7FF or
	// more means infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	fb := exp2<<52 | mant&(1<<52-1)
	if neg {
		fb |= 1 << 63
	}
	return math.Float64frombits(fb), true
}
