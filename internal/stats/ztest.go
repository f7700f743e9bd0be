package stats

import "math"

// TwoProportionZResult holds the outcome of a two-proportion z-test.
type TwoProportionZResult struct {
	Z float64 // test statistic
	P float64 // two-sided p-value
}

// TwoProportionZ tests H0: the success probability underlying k1/n1 equals
// the one underlying k2/n2, using the pooled two-proportion z-test. This is
// the dissimilarity metric the paper uses on racial composition: a small
// p-value (large |z|) means the minority shares of two regions differ
// significantly.
//
// Degenerate inputs (empty samples, or a pooled proportion of exactly 0 or 1,
// where both samples are necessarily identical) return Z = 0, P = 1 — i.e.
// "not dissimilar" — except when either n is zero, which returns P = NaN so
// callers can treat the pair as non-comparable.
func TwoProportionZ(k1, n1, k2, n2 int) TwoProportionZResult {
	z := TwoProportionZStat(k1, n1, k2, n2)
	if math.IsNaN(z) {
		return TwoProportionZResult{Z: math.NaN(), P: math.NaN()}
	}
	return TwoProportionZResult{Z: z, P: TwoSidedP(z)}
}

// TwoProportionZStat is TwoProportionZ's test statistic alone: NaN for empty
// samples, exactly 0 for a degenerate pooled proportion (where the full test
// reports P = 1, which equals TwoSidedP(0) bit-for-bit). Callers that only
// need a threshold decision pair it with a TwoSidedPGate and skip the erfc.
//
//lint:hotpath
func TwoProportionZStat(k1, n1, k2, n2 int) float64 {
	if n1 <= 0 || n2 <= 0 {
		return math.NaN()
	}
	p1 := float64(k1) / float64(n1)
	p2 := float64(k2) / float64(n2)
	pooled := float64(k1+k2) / float64(n1+n2)
	if pooled <= 0 || pooled >= 1 {
		return 0
	}
	se := math.Sqrt(pooled * (1 - pooled) * (1/float64(n1) + 1/float64(n2)))
	return (p1 - p2) / se
}
