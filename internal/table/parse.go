package table

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Number parsing straight from a CSV field's bytes. Each parser takes an
// exact fast path on the shapes a LAR file is made of and hands anything
// else to strconv, so every result — value, error or not, error text — is
// the one strconv gives for the same text (FuzzParseNumber pins this).
// The string(b) conversions on the fallback paths do not allocate for
// short fields, because strconv copies the text it keeps in an error.

// float64pow10[k] is 10^k for the fraction lengths parseFloat's fast path
// takes; float64 holds each exactly (it does up to 10^22).
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// pow10Neg128[k] is the 128-bit mantissa of 10^-k, rounded down: the
// largest E with E·10^k ≤ 2^s, for the s (pow10NegShift) that puts E's top
// bit at bit 127. It is [hi, lo] 64-bit halves, the form Eisel–Lemire
// multiplies by, and is computed here rather than transcribed.
var pow10Neg128 = func() (t [len(float64pow10)][2]uint64) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for k := range t {
		e := new(big.Int).Lsh(big.NewInt(1), pow10NegShift(k))
		e.Quo(e, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil))
		t[k][1] = new(big.Int).And(e, mask).Uint64()
		t[k][0] = e.Rsh(e, 64).Uint64()
	}
	return t
}()

// pow10NegShift is the binary scale s of pow10Neg128[k], so 10^-k is about
// pow10Neg128[k]·2^-s: 127 minus floor(log2 10^-k), taken with strconv's
// fixed-point log2(10) ≈ 217706/2^16. eiselLemire's result exponent is
// built from the same s.
func pow10NegShift(k int) uint {
	return uint(127 - (217706 * -k >> 16))
}

// parseFloat parses b like strconv.ParseFloat(string(b), 64). A plain
// [-]digits[.[digits]] decimal of at most 19 digits reads as one integer
// m < 10^19 scaled by 10^-k for its k fraction digits, and is finished on
// one of two exact paths. Below 2^53, m/10^k divides two exact float64
// values (10^k is exact up to k = 22), and IEEE division rounds their
// exact quotient correctly, as ParseFloat does; the sign is applied after
// the division, which rounds symmetrically and keeps "-0" negative. From
// 2^53 up, eiselLemire rounds m·10^-k, or reports the rare case it cannot
// decide, which goes to strconv; so does everything off the plain-decimal
// shape. Both paths give the bits strconv gives.
func parseFloat(b []byte) (float64, error) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i = 1
	}
	var m uint64
	start := i
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	intDigits := i - start
	fracDigits := 0
	if intDigits > 0 && i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		fracDigits = i - fracStart
	}
	// 19 digits cannot overflow m; more may have, so they go to strconv
	// along with everything else off the fast path.
	if i != len(b) || intDigits == 0 || intDigits+fracDigits > 19 {
		return strconv.ParseFloat(string(b), 64)
	}
	if m >= 1<<53 {
		if f, ok := eiselLemire(m, fracDigits, neg); ok {
			return f, nil
		}
		return strconv.ParseFloat(string(b), 64)
	}
	f := float64(m) / float64pow10[fracDigits]
	if neg {
		f = -f
	}
	return f, nil
}

// eiselLemire returns m·10^-k rounded to the nearest float64, ties to
// even, or ok = false when the 128-bit product cannot tell which way m
// rounds. It is the Eisel–Lemire algorithm as strconv runs it (see
// nigeltao.github.io/blog/2020/eisel-lemire.html), cut to the inputs
// parseFloat hands it: 2^53 ≤ m < 10^19 and k ≤ 19, so m needs no
// truncation and the result, in [2^53·10^-19, 2^64), is a normal float64.
func eiselLemire(m uint64, k int, neg bool) (float64, bool) {
	pow := &pow10Neg128[k]
	clz := bits.LeadingZeros64(m)
	m <<= uint(clz)
	const float64ExponentBias = 1023
	exp2 := uint64(127+64+float64ExponentBias) - uint64(pow10NegShift(k)) - uint64(clz)

	// The top 64 bits of m·E settle the rounding unless the bits below the
	// 54 kept ones are all ones, where the low half of E may carry into
	// them; then the full 192-bit product decides, or nothing does.
	hi, lo := bits.Mul64(m, pow[0])
	if hi&0x1FF == 0x1FF && lo+m < m {
		yHi, yLo := bits.Mul64(m, pow[1])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+m < m {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Keep 54 bits, then round the last one off; a product that sits
	// exactly halfway cannot be told from one just above it.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	fbits := exp2<<52 | mant&(1<<52-1)
	if neg {
		fbits |= 1 << 63
	}
	return math.Float64frombits(fbits), true
}

// parseInt parses b like strconv.ParseInt(string(b), 10, 64). Up to 18
// plain digits cannot overflow an int64, so they take a digit loop.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range b {
		if c-'0' >= 10 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// parseBool parses b like strconv.ParseBool(string(b)), matching the
// literals WriteCSV writes directly.
func parseBool(b []byte) (bool, error) {
	switch string(b) {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return strconv.ParseBool(string(b))
}
