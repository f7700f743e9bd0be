package stats

import (
	"math"
	"sort"
)

// MannWhitneyResult holds the outcome of a Mann–Whitney U test.
type MannWhitneyResult struct {
	U float64 // the U statistic for the first sample
	Z float64 // normal-approximation test statistic (tie-corrected)
	P float64 // two-sided p-value
}

// MannWhitneyU performs the two-sided Mann–Whitney U test (Wilcoxon rank-sum)
// on two independent samples, using the normal approximation with tie
// correction and continuity correction. This is the similarity metric the
// paper uses to decide whether two regions have comparable income
// distributions: a large p-value means the samples are statistically
// indistinguishable.
//
// When either sample is empty or holds a NaN the result has P = NaN; callers
// treat such pairs as non-comparable.
//
// MannWhitneyU sorts copies of both samples and delegates to
// MannWhitneyUSorted; a caller that tests one sample against many others
// should sort each sample once and call MannWhitneyUSorted directly (the
// audit engine's PreparedMetric path does exactly this).
func MannWhitneyU(xs, ys []float64) MannWhitneyResult {
	if len(xs) == 0 || len(ys) == 0 {
		return mannWhitneyNaN
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	return MannWhitneyUSorted(a, b)
}

// MannWhitneyUSorted is MannWhitneyU for samples already sorted ascending.
// It merges the two sorted samples with two cursors — O(n1+n2) time, zero
// allocations — assigning mid-ranks to ties across the union exactly as the
// combined-sort implementation did, so results are bit-identical to
// MannWhitneyU on the same data (rank sums and tie terms are sums and
// products of exactly-representable multiples of one half, so neither
// accumulation order nor multiply-versus-repeated-add changes a bit).
//
// A sample holding a NaN yields the NaN result, like an empty one. Sorted
// ascending means as sort.Float64s and slices.Sort order values, NaNs first,
// so the check is O(1); on inputs that are not sorted the results are
// unspecified, but the call still terminates: every merge step consumes at
// least one element or returns.
func MannWhitneyUSorted(xs, ys []float64) MannWhitneyResult {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 || math.IsNaN(xs[0]) || math.IsNaN(ys[0]) {
		return mannWhitneyNaN
	}

	// Walk both samples in lockstep, grouping ties across the union and
	// accumulating the first sample's rank sum plus the tie-correction term
	// sum(t^3 - t).
	var rankSum1, tieTerm float64
	i, j, consumed := 0, 0, 0
	for i < n1 || j < n2 {
		var v float64
		switch {
		case i >= n1:
			v = ys[j]
		case j >= n2:
			v = xs[i]
		case xs[i] <= ys[j]:
			v = xs[i]
		default:
			v = ys[j]
		}
		cx, cy := 0, 0
		for i < n1 && xs[i] == v { //lint:floateq-ok exact-tie-grouping
			i++
			cx++
		}
		for j < n2 && ys[j] == v { //lint:floateq-ok exact-tie-grouping
			j++
			cy++
		}
		t := cx + cy
		if t == 0 {
			return mannWhitneyNaN // v is a NaN, equal to nothing: an unsorted NaN
		}
		midRank := float64(2*consumed+t+1) / 2 // ranks are 1-based
		rankSum1 += float64(cx) * midRank
		if t > 1 {
			ft := float64(t)
			tieTerm += ft*ft*ft - ft
		}
		consumed += t
	}
	return mannWhitneyFromRankSum(rankSum1, tieTerm, n1, n2)
}

// MannWhitneySeparatedP returns the two-sided Mann–Whitney p-value for two
// completely separated samples of the given sizes: every observation of the
// first sample below every observation of the second, no cross-sample ties.
// It is the smallest p the test can produce at these sizes assuming no ties,
// and an upper bound on the p-value of ANY pair of samples with disjoint
// value ranges — internal ties only shrink the variance and push p lower, and
// cross-sample ties are impossible when the ranges are disjoint. The audit
// engine's conservative Mann–Whitney bound rejects a range-disjoint pair
// exactly when this upper bound is already below the similarity threshold.
// Empty samples give NaN, matching MannWhitneyU.
func MannWhitneySeparatedP(n1, n2 int) float64 {
	if n1 == 0 || n2 == 0 {
		return math.NaN()
	}
	rankSum1 := float64(n1) * float64(n1+1) / 2 // first sample occupies ranks 1..n1
	return mannWhitneyFromRankSum(rankSum1, 0, n1, n2).P
}

// MannWhitneyUSortedNoTies is the no-ties specialization of
// MannWhitneyUSorted: a branch-light single-advance merge for samples that
// are each strictly increasing. The caller must guarantee neither sample
// contains a duplicate value (within-sample ties change the tie-correction
// term and are NOT detected here); cross-sample ties ARE detected, and the
// function returns ok=false — with an unspecified result — so the caller can
// fall back to the general tie-aware kernel. When ok is true the result is
// bit-identical to MannWhitneyUSorted on the same data: with no ties anywhere
// the rank sum is the exact integer n1(n1+1)/2 + #{x > y}, which the general
// kernel accumulates in exact float64 steps with a zero tie term.
//
// Empty samples and samples led by a NaN return the NaN result with ok=true,
// matching MannWhitneyUSorted.
//
//lint:hotpath
func MannWhitneyUSortedNoTies(xs, ys []float64) (res MannWhitneyResult, ok bool) {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 || math.IsNaN(xs[0]) || math.IsNaN(ys[0]) {
		return mannWhitneyNaN, true
	}
	// cross counts #{(x, y) : x > y}. Each consumed y sees all still-pending
	// xs above it; the branchless advance keeps the loop's only data-dependent
	// branch the rare cross-tie check.
	cross := 0
	i, j := 0, 0
	for i < n1 && j < n2 {
		x, y := xs[i], ys[j]
		if x == y { //lint:floateq-ok cross-tie-detection
			return MannWhitneyResult{}, false
		}
		yl := 0
		if y < x {
			yl = 1
		}
		cross += yl * (n1 - i)
		j += yl
		i += 1 - yl
	}
	return MannWhitneyFromCross(cross, n1, n2), true
}

// mannWhitneyNaN is the result for samples the test cannot rank: empty, or
// holding a NaN.
var mannWhitneyNaN = MannWhitneyResult{U: math.NaN(), Z: math.NaN(), P: math.NaN()}

// mannWhitneyFromRankSum finishes the test from the first sample's rank sum
// and the tie-correction term: the U statistic, the tie-corrected normal
// approximation with continuity correction, and the two-sided p-value.
func mannWhitneyFromRankSum(rankSum1, tieTerm float64, n1, n2 int) MannWhitneyResult {
	u1, z, degenerate := mannWhitneyZFromRankSum(rankSum1, tieTerm, n1, n2)
	if degenerate {
		// All observations tied: the samples are indistinguishable.
		return MannWhitneyResult{U: u1, Z: 0, P: 1}
	}
	return MannWhitneyResult{U: u1, Z: z, P: TwoSidedP(z)}
}

// mannWhitneyZFromRankSum is the statistic half of mannWhitneyFromRankSum:
// the U statistic and the tie- and continuity-corrected z, without the erfc.
// Sharing this helper is what keeps MannWhitneyZNoTies bit-identical to the
// full test's Z — both run the exact same float operations in the same order.
func mannWhitneyZFromRankSum(rankSum1, tieTerm float64, n1, n2 int) (u1, z float64, degenerate bool) {
	fn1, fn2 := float64(n1), float64(n2)
	u1 = rankSum1 - fn1*(fn1+1)/2
	mu := fn1 * fn2 / 2
	n := fn1 + fn2
	sigma2 := fn1 * fn2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return u1, 0, true
	}
	// Continuity correction toward the mean.
	diff := u1 - mu
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	return u1, diff / math.Sqrt(sigma2), false
}

// MannWhitneyZNoTies returns MannWhitneyFromCross(cross, n1, n2).Z without
// computing the p-value — the statistic alone, bit-identical to the full
// test's Z (both call mannWhitneyZFromRankSum on the same inputs). The audit's
// fast similarity gate maps cross-count bounds into |z| space with it and
// decides most pairs against a verified critical band, skipping both the
// exact cross count and the erfc. Empty samples return NaN, matching
// MannWhitneyFromCross.
//
//lint:hotpath
func MannWhitneyZNoTies(cross, n1, n2 int) float64 {
	if n1 == 0 || n2 == 0 {
		return math.NaN()
	}
	rankSum1 := float64(n1)*float64(n1+1)/2 + float64(cross)
	_, z, degenerate := mannWhitneyZFromRankSum(rankSum1, 0, n1, n2)
	if degenerate {
		return 0
	}
	return z
}
