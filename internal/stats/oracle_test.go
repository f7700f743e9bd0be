package stats

// Test oracles: the plain Monte-Carlo estimator of Section 3.2, the pairwise
// null simulator, the store-free null-store reference and the sequential
// Benjamini–Hochberg entry point. The engine reaches each of these through
// its optimized path (NullStore, BenjaminiHochbergWorkers); the tests
// compare that path against them.

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
// with MonteCarloP for the LC-SF test.
func PairNullSimulator(rng *RNG, n1, n2 int, pooledRate float64) func() float64 {
	return func() float64 {
		return pairNullDraw(rng, n1, n2, pooledRate)
	}
}

// PairMonteCarloP is MonteCarloP specialized to the pairwise null of
// PairNullSimulator, taking the generator and null parameters directly
// instead of a simulator closure. The stream and the returned p-value are
// identical to
//
//	MonteCarloP(observed, m, PairNullSimulator(rng, n1, n2, pooledRate))
//
// with an equivalently seeded generator. NullCacheReferenceP builds its
// uncached oracle on it.
func PairMonteCarloP(rng *RNG, observed float64, m, n1, n2 int, pooledRate float64) float64 {
	if m <= 0 {
		return 1
	}
	geq := 0
	for i := 0; i < m; i++ {
		if pairNullDraw(rng, n1, n2, pooledRate) >= observed {
			geq++
		}
	}
	return float64(1+geq) / float64(m+1)
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
	p := PairMonteCarloP(rng, observed, worlds, key.n1, key.n2, pooledRate)
	if p > cut {
		return float64(1+mcStopCount(worlds, cut)) / float64(worlds+1)
	}
	return p
}

// BenjaminiHochberg applies the Benjamini–Hochberg step-up procedure to a
// set of p-values, returning a boolean per input reporting whether that
// hypothesis is rejected at false-discovery rate q.
//
// The LC-SF audit tests thousands of region pairs; the paper controls each
// test at a fixed significance level, which bounds the per-pair error but
// not the share of false discoveries among the flagged pairs. FDR control is
// offered as an extension (Config.FDR in the core package) for auditors who
// need the flagged list itself to be mostly real.
func BenjaminiHochberg(pvalues []float64, q float64) []bool {
	return BenjaminiHochbergWorkers(pvalues, q, 1)
}

// pairNullDraw simulates one world of the paper's pairwise null hypothesis:
// both regions' positive counts drawn from Binomial(n, pooledRate), scored by
// the pairwise likelihood-ratio statistic. It is the body of
// PairNullSimulator's closure, shared so PairMonteCarloP produces the
// identical stream.
func pairNullDraw(rng *RNG, n1, n2 int, pooledRate float64) float64 {
	k1 := rng.Binomial(n1, pooledRate)
	k2 := rng.Binomial(n2, pooledRate)
	return PairLRT(k1, n1, k2, n2)
}
