package stats

import (
	"math"
	"sort"
)

// KSResult holds the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	D float64 // the KS statistic: sup |F1 - F2|
	P float64 // asymptotic two-sided p-value
}

// KolmogorovSmirnov performs the two-sample KS test: H0 says the samples
// come from the same continuous distribution. It is offered as an
// alternative similarity metric to the Mann–Whitney U test — sensitive to
// any distributional difference (spread, shape), not only location shifts.
// Empty samples and samples holding a NaN give P = NaN.
//
// KolmogorovSmirnov sorts copies of both samples and delegates to
// KolmogorovSmirnovSorted; callers that compare one sample against many
// others should sort once and use the sorted variant directly.
func KolmogorovSmirnov(xs, ys []float64) KSResult {
	if len(xs) == 0 || len(ys) == 0 {
		return KSResult{D: math.NaN(), P: math.NaN()}
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	return KolmogorovSmirnovSorted(a, b)
}

// KolmogorovSmirnovSorted is KolmogorovSmirnov for samples already sorted
// ascending: a single merge pass over the two empirical CDFs — O(n1+n2)
// time, zero allocations — with results bit-identical to KolmogorovSmirnov
// on the same data. A sample holding a NaN yields the NaN result, like an
// empty one: sorted ascending means as sort.Float64s and slices.Sort order
// values, NaNs first, so the check is O(1). Inputs that are not sorted
// ascending yield unspecified results, but the call still terminates: every
// merge step consumes at least one element or returns.
func KolmogorovSmirnovSorted(xs, ys []float64) KSResult {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 || math.IsNaN(xs[0]) || math.IsNaN(ys[0]) {
		return KSResult{D: math.NaN(), P: math.NaN()}
	}

	var d float64
	i, j := 0, 0
	for i < n1 && j < n2 {
		v := math.Min(xs[i], ys[j])
		i0, j0 := i, j
		for i < n1 && xs[i] <= v {
			i++
		}
		for j < n2 && ys[j] <= v {
			j++
		}
		if i == i0 && j == j0 {
			return KSResult{D: math.NaN(), P: math.NaN()} // v is an unsorted NaN
		}
		f1 := float64(i) / float64(n1)
		f2 := float64(j) / float64(n2)
		if diff := math.Abs(f1 - f2); diff > d {
			d = diff
		}
	}

	ne := float64(n1) * float64(n2) / float64(n1+n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{D: d, P: ksProbability(lambda)}
}

// KolmogorovSmirnovSeparatedP returns the KS p-value at the maximal statistic
// D = 1, which two samples attain exactly when their value ranges are
// disjoint. Because the asymptotic tail is decreasing in D, this is a lower
// bound on the p-value of any two samples — and the exact p-value for
// range-disjoint ones, which is how the audit engine's conservative KS bound
// uses it: a range-disjoint pair rejects exactly when this p is already below
// the similarity threshold. Empty samples give NaN, matching
// KolmogorovSmirnov.
func KolmogorovSmirnovSeparatedP(n1, n2 int) float64 {
	if n1 == 0 || n2 == 0 {
		return math.NaN()
	}
	ne := float64(n1) * float64(n2) / float64(n1+n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * 1
	return ksProbability(lambda)
}

// ksProbability is the asymptotic Kolmogorov distribution tail
// Q(lambda) = 2 sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
func ksProbability(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const maxTerms = 100
	sum := 0.0
	sign := 1.0
	for k := 1; k <= maxTerms; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}
