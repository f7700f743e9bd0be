package table

import "strconv"

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

// parseFloat parses b like strconv.ParseFloat(string(b), 64). A plain
// [-]digits[.[digits]] decimal of at most 19 digits, whose digits read as
// one integer m stay below 2^53, is m/10^k for its k fraction digits: both
// operands are exact float64 values (10^k is exact up to k = 22), and IEEE
// division rounds their exact quotient correctly, as ParseFloat does, so
// the two results are the same bits. The sign is applied after the
// division, which rounds symmetrically and keeps "-0" negative.
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
	if i != len(b) || intDigits == 0 || intDigits+fracDigits > 19 || m >= 1<<53 {
		return strconv.ParseFloat(string(b), 64)
	}
	f := float64(m) / float64pow10[fracDigits]
	if neg {
		f = -f
	}
	return f, nil
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
