package verify

import (
	"math"
	"sort"

	"lcsf/internal/stats"
)

// This file holds the naive reference implementations the fuzz targets
// differentiate the optimized stats kernels against. They share none of the
// kernels' structure: ranks are counted with O(n^2) loops instead of merge
// cursors, empirical CDFs are evaluated pointwise, and Benjamini–Hochberg is
// re-derived from its textbook definition. The closing formulas (normal
// approximation, KS tail, Welch statistic) are transcribed term for term
// from their documented definitions so agreement is expected bit-for-bit —
// rank sums and tie terms are exact in float64 at fuzzed sizes, and
// identical expressions on identical operands round identically.

// refMannWhitney recomputes the two-sided Mann–Whitney U test by counting,
// for every first-sample observation, how many pooled observations lie below
// it and how many tie it — the midrank definition, O(n^2).
func refMannWhitney(xs, ys []float64) stats.MannWhitneyResult {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return stats.MannWhitneyResult{U: math.NaN(), Z: math.NaN(), P: math.NaN()}
	}
	all := make([]float64, 0, n1+n2)
	all = append(append(all, xs...), ys...)

	var rankSum1 float64
	for _, x := range xs {
		less, tied := 0, 0
		for _, v := range all {
			if v < x {
				less++
			}
			if v == x {
				tied++
			}
		}
		rankSum1 += float64(less) + (float64(tied)+1)/2
	}
	var tieTerm float64
	for i, v := range all {
		seen := false
		for j := 0; j < i; j++ {
			if all[j] == v {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		t := 0
		for _, w := range all {
			if w == v {
				t++
			}
		}
		if t > 1 {
			ft := float64(t)
			tieTerm += ft*ft*ft - ft
		}
	}

	fn1, fn2 := float64(n1), float64(n2)
	u1 := rankSum1 - fn1*(fn1+1)/2
	mu := fn1 * fn2 / 2
	n := fn1 + fn2
	sigma2 := fn1 * fn2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return stats.MannWhitneyResult{U: u1, Z: 0, P: 1}
	}
	diff := u1 - mu
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	z := diff / math.Sqrt(sigma2)
	return stats.MannWhitneyResult{U: u1, Z: z, P: stats.TwoSidedP(z)}
}

// refKolmogorovSmirnov recomputes the two-sample KS test by evaluating both
// empirical CDFs at every pooled observation with O(n^2) counting loops.
func refKolmogorovSmirnov(xs, ys []float64) stats.KSResult {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return stats.KSResult{D: math.NaN(), P: math.NaN()}
	}
	var d float64
	points := make([]float64, 0, n1+n2)
	points = append(append(points, xs...), ys...)
	for _, v := range points {
		c1, c2 := 0, 0
		for _, x := range xs {
			if x <= v {
				c1++
			}
		}
		for _, y := range ys {
			if y <= v {
				c2++
			}
		}
		f1 := float64(c1) / float64(n1)
		f2 := float64(c2) / float64(n2)
		if diff := math.Abs(f1 - f2); diff > d {
			d = diff
		}
	}
	ne := float64(n1) * float64(n2) / float64(n1+n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return stats.KSResult{D: d, P: refKSTail(lambda)}
}

// refKSTail is the asymptotic Kolmogorov tail Q(lambda), transcribed from
// its series definition.
func refKSTail(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum, sign := 0.0, 1.0
	for k := 1; k <= 100; k++ {
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

// refWelch recomputes Welch's t-test directly from the raw samples: naive
// mean and unbiased variance, then the Welch statistic and Satterthwaite
// degrees of freedom from their definitions.
func refWelch(xs, ys []float64) stats.WelchTResult {
	n1, n2 := len(xs), len(ys)
	if n1 < 2 || n2 < 2 {
		return stats.WelchTResult{T: math.NaN(), DF: math.NaN(), P: math.NaN()}
	}
	mean := func(vs []float64) float64 {
		var s float64
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	variance := func(vs []float64, m float64) float64 {
		var s float64
		for _, v := range vs {
			d := v - m
			s += d * d
		}
		return s / float64(len(vs)-1)
	}
	m1, m2 := mean(xs), mean(ys)
	v1, v2 := variance(xs, m1), variance(ys, m2)
	se1, se2 := v1/float64(n1), v2/float64(n2)
	se := math.Sqrt(se1 + se2)
	if se == 0 {
		if m1 == m2 {
			return stats.WelchTResult{T: 0, DF: float64(n1 + n2 - 2), P: 1}
		}
		return stats.WelchTResult{T: math.Inf(1), DF: float64(n1 + n2 - 2), P: 0}
	}
	t := (m1 - m2) / se
	df := (se1 + se2) * (se1 + se2) /
		(se1*se1/float64(n1-1) + se2*se2/float64(n2-1))
	return stats.WelchTResult{T: t, DF: df, P: stats.StudentTTwoSidedP(t, df)}
}

// refBenjaminiHochberg re-derives the step-up procedure from its textbook
// definition: sort the p-values, find the largest k with p_(k) <= k/n*q, and
// reject every hypothesis whose p-value is at most that threshold.
func refBenjaminiHochberg(pvalues []float64, q float64) []bool {
	n := len(pvalues)
	out := make([]bool, n)
	if n == 0 || q <= 0 {
		return out
	}
	sorted := append([]float64(nil), pvalues...)
	sort.Float64s(sorted)
	cut := -1
	for k := 1; k <= n; k++ {
		if sorted[k-1] <= float64(k)/float64(n)*q {
			cut = k
		}
	}
	if cut < 1 {
		return out
	}
	threshold := sorted[cut-1]
	for i, p := range pvalues {
		out[i] = p <= threshold
	}
	return out
}

// refNullStoreP re-derives, with no store at all, the p-value a
// stats.NullStore built with the same seed, worlds and cut returns for the
// key (n1, n2, pooledPositives) at the observed statistic: it orders the
// key's sizes, seeds the key's stream by the store's documented FNV-style
// mix, streams all m worlds of the pairwise null (both counts drawn at the
// pooled rate, scored by PairLRT) counting those at or above observed, and
// replaces a p above cut by the canonical (1+stop)/(m+1), stop being the
// least count whose add-one p exceeds cut. First, completing, stored and
// past-bound lookups must all be bit-identical to it.
func refNullStoreP(seed uint64, worlds, n1, n2, pooledPositives int, observed, cut float64) float64 {
	if worlds <= 0 {
		return 1
	}
	if n1 > n2 {
		n1, n2 = n2, n1
	}
	h := seed ^ 0x9E2AC4F1D7
	h = h*0x100000001b3 ^ uint64(n1)
	h = h*0x100000001b3 ^ uint64(n2)
	h = h*0x100000001b3 ^ uint64(pooledPositives)
	rng := stats.NewRNG(h)
	rate := float64(pooledPositives) / float64(n1+n2)
	geq := 0
	for i := 0; i < worlds; i++ {
		k1 := rng.Binomial(n1, rate)
		k2 := rng.Binomial(n2, rate)
		if stats.PairLRT(k1, n1, k2, n2) >= observed {
			geq++
		}
	}
	m1 := float64(worlds + 1)
	if p := float64(1+geq) / m1; p <= cut {
		return p
	}
	stop := 0
	for float64(1+stop)/m1 <= cut {
		stop++
	}
	return float64(1+stop) / m1
}

// sampleFromBytes decodes fuzz bytes into a bounded sample with heavy tie
// mass: each byte maps to a quarter-integer in [-32, 31.75], so fuzzed
// samples collide constantly — exactly the regime where rank and CDF
// bookkeeping goes wrong.
func sampleFromBytes(data []byte, maxN int) []float64 {
	if len(data) > maxN {
		data = data[:maxN]
	}
	out := make([]float64, len(data))
	for i, b := range data {
		out[i] = float64(int(b)-128) / 4
	}
	return out
}

// sortedSampleFromBytes is sampleFromBytes followed by an ascending sort —
// the precondition of the merge kernels under test.
func sortedSampleFromBytes(data []byte, maxN int) []float64 {
	out := sampleFromBytes(data, maxN)
	sort.Float64s(out)
	return out
}

// floatEq compares two float64s for the differential assertions: exact
// bit-level agreement, with NaN equal to NaN.
func floatEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// refBinomial transcribes the binomial draw RNG.Binomial defines, as it was
// written before the per-(n, p) sampler: the symmetry flip by recursion,
// Bernoulli summation through Float64 for small n or mean, and the normal
// approximation through refNormFloat64, rounded and clamped to [0, n].
func refBinomial(r *stats.RNG, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - refBinomial(r, n, 1-p)
	}
	mean := float64(n) * p
	if n <= 64 || mean < 30 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*refNormFloat64(r)))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// refNormFloat64 is the polar Box–Muller variate, one value per accepted
// pair, with its logarithm evaluated on every draw.
func refNormFloat64(r *stats.RNG) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
