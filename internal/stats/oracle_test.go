package stats

import (
	"math"
	"sort"
)

// Test oracles: the plain Monte-Carlo estimator of Section 3.2, the pairwise
// null simulator, the store-free null-store reference and an exact binomial
// CDF. The engine reaches each of these through its optimized path
// (NullStore, BinomialSampler); the tests compare that path against them.

// MonteCarloP estimates the significance of an observed test statistic by
// simulation, following the procedure of Section 3.2: m alternative "worlds"
// are generated under the null hypothesis, the statistic is computed in each,
// and the p-value is the rank of the observed statistic among the simulated
// ones.
//
// simulate must return the test statistic of one freshly simulated world;
// larger statistics mean stronger evidence against the null. The returned
// p-value uses the standard add-one rank estimator
//
//	p = (1 + #{tau_sim >= tau_obs}) / (m + 1)
//
// which is never zero and is exact for exchangeable simulations.
func MonteCarloP(observed float64, m int, simulate func() float64) float64 {
	if m <= 0 {
		return 1
	}
	geq := 0
	for i := 0; i < m; i++ {
		if simulate() >= observed {
			geq++
		}
	}
	return float64(1+geq) / float64(m+1)
}

// PairNullSimulator returns a closure that simulates the paper's pairwise
// null hypothesis for two regions with n1 and n2 individuals: both regions'
// positive counts are drawn from Binomial(n, pooledRate), and the pairwise
// likelihood-ratio statistic is returned. It is the `simulate` argument used
// with MonteCarloP for the LC-SF test; its two samplers are built once.
func PairNullSimulator(rng *RNG, n1, n2 int, pooledRate float64) func() float64 {
	b1, b2 := NewBinomialSampler(n1, pooledRate), NewBinomialSampler(n2, pooledRate)
	return func() float64 {
		k1 := b1.Draw(rng)
		k2 := b2.Draw(rng)
		return PairLRT(k1, n1, k2, n2)
	}
}

// NullCacheReferenceP computes, with no store at all, the p-value a
// NullStore constructed with the same seed, worlds and cut returns for the
// key (n1, n2, pooledPositives) at the observed statistic. It re-derives the
// key-seeded stream, counts exceedances over all worlds directly, and
// replaces a p-value above cut by the canonical (1+stop)/(m+1): first,
// completing, stored and past-bound lookups must all be bit-identical to
// this reference.
func NullCacheReferenceP(seed uint64, worlds, n1, n2, pooledPositives int, observed, cut float64) float64 {
	if worlds <= 0 {
		return 1
	}
	key := newPairNullKey(n1, n2, pooledPositives)
	rng := NewRNG(nullCacheSeed(seed, key))
	pooledRate := float64(key.pooledPositives) / float64(key.n1+key.n2)
	p := MonteCarloP(observed, worlds, PairNullSimulator(rng, key.n1, key.n2, pooledRate))
	if p > cut {
		return float64(1+mcStopCount(worlds, cut)) / float64(worlds+1)
	}
	return p
}

// exactBinomialCDF returns the Binomial(n, p) CDF over [0, n], p in (0, 1),
// each pmf term evaluated on its own in log space through math.Lgamma — no
// recurrence and no window, so it shares nothing with BinomialSampler.
func exactBinomialCDF(n int, p float64) []float64 {
	cdf := make([]float64, n+1)
	lgn, _ := math.Lgamma(float64(n + 1))
	acc := 0.0
	for k := range cdf {
		lgk, _ := math.Lgamma(float64(k + 1))
		lgr, _ := math.Lgamma(float64(n - k + 1))
		acc += math.Exp(lgn - lgk - lgr + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
		cdf[k] = acc
	}
	for k := range cdf {
		cdf[k] /= acc
	}
	return cdf
}

// invertCDF returns the least k with u < cdf[k], by binary search.
func invertCDF(cdf []float64, u float64) int {
	return min(sort.Search(len(cdf), func(k int) bool { return u < cdf[k] }), len(cdf)-1)
}
