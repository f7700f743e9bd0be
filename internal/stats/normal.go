package stats

import "math"

// NormalCDF returns P(Z <= z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalSF returns the survival function P(Z > z), computed to preserve
// precision in the far tail.
func NormalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// TwoSidedP returns the two-sided p-value for a standard normal test
// statistic z: P(|Z| >= |z|).
func TwoSidedP(z float64) float64 {
	p := 2 * NormalSF(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return p
}

// TwoSidedPGate answers the threshold comparison TwoSidedP(z) <= alpha by a
// |z| compare against a precomputed critical band, skipping the erfc on the
// hot path. The construction bit-bisects the actual TwoSidedP implementation
// — not an analytic quantile — so the fast decision is the exact decision:
// hi is a float where TwoSidedP(hi) <= alpha was VERIFIED (any |z| > hi
// passes by monotonicity), lo one where TwoSidedP(lo) > alpha was verified
// (any |z| < lo fails), and the narrow [lo, hi] band — a few thousand ULPs
// guarding against sub-ULP wiggles in erfc — evaluates TwoSidedP directly.
// NaN z falls into the band and inherits TwoSidedP's NaN semantics (the
// comparison is false), matching the ungated code path.
type TwoSidedPGate struct {
	lo, hi float64
	alpha  float64
}

// NewTwoSidedPGate builds the gate for one alpha. Cost: ~70 TwoSidedP
// evaluations, amortized over every LE call at that threshold.
func NewTwoSidedPGate(alpha float64) TwoSidedPGate {
	pred := func(z float64) bool { return TwoSidedP(z) <= alpha }
	g := TwoSidedPGate{alpha: alpha}
	if pred(0) {
		// alpha >= 1: every z passes. lo below zero never triggers.
		g.lo, g.hi = -1, 0
		return g
	}
	if !pred(math.MaxFloat64) {
		// alpha below every representable p (alpha < 0, or 0 with a tail
		// that never underflows): no finite z passes; only +Inf reaches the
		// band for exact evaluation.
		g.lo, g.hi = math.MaxFloat64, math.Inf(1)
		return g
	}
	// Bit-bisect on the non-negative float line (bit order = value order):
	// invariant pred(hi) true, pred(lo) false.
	ulo, uhi := math.Float64bits(0), math.Float64bits(math.MaxFloat64)
	for uhi-ulo > 1 {
		mid := ulo + (uhi-ulo)/2
		if pred(math.Float64frombits(mid)) {
			uhi = mid
		} else {
			ulo = mid
		}
	}
	zc := math.Float64frombits(uhi)
	// Widen to a verified guard band: outside it the decision is trusted to
	// monotonicity with thousands of ULPs to spare; inside it LE evaluates
	// TwoSidedP exactly.
	hi := zc * (1 + 1e-12)
	for !pred(hi) {
		hi = math.Nextafter(hi*(1+1e-12), math.Inf(1))
	}
	lo := math.Float64frombits(ulo) * (1 - 1e-12)
	for lo > 0 && pred(lo) {
		lo = math.Nextafter(lo*(1-1e-12), 0)
	}
	g.lo, g.hi = lo, hi
	return g
}

// LE reports TwoSidedP(z) <= alpha, bit-identically to evaluating it.
//
//lint:hotpath
func (g TwoSidedPGate) LE(z float64) bool {
	az := math.Abs(z)
	if az > g.hi {
		return true
	}
	if az < g.lo {
		return false
	}
	return TwoSidedP(az) <= g.alpha
}

// TwoSidedPGEGate answers TwoSidedP(z) >= alpha — the similarity-gate
// direction, where a LARGE p passes — by a |z| compare against verified
// thresholds, the mirror image of TwoSidedPGate. Because TwoSidedP is
// nonincreasing in |z|, small |z| passes: any |z| <= passLo passes (verified
// with margin), any |z| >= failHi fails (verified with margin), and the
// narrow band between them evaluates TwoSidedP directly. Unlike the LE gate
// it additionally decides whole |z| INTERVALS: when a caller only knows the
// statistic lies in [azMin, azMax], DecideRange settles the threshold
// comparison for every point at once or reports the interval undecidable.
// NaN z falls through both compares into the exact evaluation, inheriting
// TwoSidedP's NaN semantics (the comparison is false).
type TwoSidedPGEGate struct {
	passLo, failHi float64
	alpha          float64
}

// NewTwoSidedPGEGate builds the gate for one alpha. Cost: ~70 TwoSidedP
// evaluations, amortized over every decision at that threshold.
func NewTwoSidedPGEGate(alpha float64) TwoSidedPGEGate {
	pred := func(z float64) bool { return TwoSidedP(z) >= alpha }
	g := TwoSidedPGEGate{alpha: alpha}
	if !pred(0) {
		// alpha above every p: nothing passes. passLo below zero never
		// triggers; failHi zero rejects every non-NaN |z| immediately.
		g.passLo, g.failHi = -1, 0
		return g
	}
	if pred(math.MaxFloat64) {
		// alpha at or below the far tail's underflowed p: every finite and
		// infinite |z| passes (TwoSidedP only shrinks toward 0 >= alpha).
		g.passLo, g.failHi = math.Inf(1), math.Inf(1)
		return g
	}
	// Bit-bisect on the non-negative float line (bit order = value order):
	// invariant pred(lo) true, pred(hi) false.
	ulo, uhi := math.Float64bits(0), math.Float64bits(math.MaxFloat64)
	for uhi-ulo > 1 {
		mid := ulo + (uhi-ulo)/2
		if pred(math.Float64frombits(mid)) {
			ulo = mid
		} else {
			uhi = mid
		}
	}
	// Widen to a verified guard band, exactly as TwoSidedPGate does: outside
	// it the decision trusts monotonicity with thousands of ULPs to spare;
	// inside it the gate evaluates TwoSidedP exactly.
	passLo := math.Float64frombits(ulo) * (1 - 1e-12)
	for passLo > 0 && !pred(passLo) {
		passLo = math.Nextafter(passLo*(1-1e-12), 0)
	}
	failHi := math.Float64frombits(uhi) * (1 + 1e-12)
	for pred(failHi) {
		failHi = math.Nextafter(failHi*(1+1e-12), math.Inf(1))
	}
	g.passLo, g.failHi = passLo, failHi
	return g
}

// DecideRange settles TwoSidedP(z) >= alpha for every |z| in [azMin, azMax]
// at once: pass when the whole interval sits in the verified pass region,
// fail when it sits wholly in the verified fail region, and decided=false
// when it touches the guard band or straddles the boundary — the caller must
// then resolve the exact statistic. Callers pass azMin <= azMax; a NaN
// endpoint is undecidable.
//
//lint:hotpath
func (g TwoSidedPGEGate) DecideRange(azMin, azMax float64) (pass, decided bool) {
	if azMax <= g.passLo {
		return true, true
	}
	if azMin >= g.failHi {
		return false, true
	}
	return false, false
}
