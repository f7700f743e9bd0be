package stats

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

// MCStats reports the simulation effort one Monte-Carlo p-value estimate
// actually spent. It carries no statistical content; discarding it never
// changes a decision.
type MCStats struct {
	// Worlds is the number of alternative worlds simulated (<= the requested
	// m when early stopping triggered).
	Worlds int
	// EarlyStopped reports whether the estimate returned before exhausting m
	// because the significance decision was already forced.
	EarlyStopped bool
}

// AdaptiveMonteCarloP is MonteCarloP with early stopping for clearly
// non-significant observations: once the number of simulated statistics
// meeting or exceeding the observed one guarantees p > alpha — the count
// reaching mcStopCount(m, alpha), the rule NullStore stops on — no further
// simulation can change the significance decision, and the function returns
// a conservative lower bound on p.
//
// The returned significant flag is identical to MonteCarloP's p <= alpha
// decision with the same generator, and p is exact whenever significant is
// true. Early stopping only truncates the stream of a pair that was going to
// be non-significant anyway, so audits remain deterministic.
func AdaptiveMonteCarloP(observed float64, m int, alpha float64, simulate func() float64) (p float64, significant bool) {
	p, significant, _ = AdaptiveMonteCarloPStats(observed, m, alpha, simulate)
	return p, significant
}

// AdaptiveMonteCarloPStats is AdaptiveMonteCarloP reporting, in addition,
// how many worlds were simulated and whether the estimate stopped early.
func AdaptiveMonteCarloPStats(observed float64, m int, alpha float64, simulate func() float64) (p float64, significant bool, st MCStats) {
	if m <= 0 {
		return 1, false, MCStats{}
	}
	stop := mcStopCount(m, alpha)
	geq := 0
	for i := 0; i < m; i++ {
		if simulate() >= observed {
			geq++
			if geq >= stop {
				return float64(1+geq) / float64(m+1), false, MCStats{Worlds: i + 1, EarlyStopped: true}
			}
		}
	}
	p = float64(1+geq) / float64(m+1)
	return p, p <= alpha, MCStats{Worlds: m}
}

// pairNullDraw simulates one world of the paper's pairwise null hypothesis:
// both regions' positive counts drawn from Binomial(n, pooledRate), scored by
// the pairwise likelihood-ratio statistic. It is the body of
// PairNullSimulator's closure, shared so the allocation-free entry point
// below produces the identical stream.
func pairNullDraw(rng *RNG, n1, n2 int, pooledRate float64) float64 {
	k1 := rng.Binomial(n1, pooledRate)
	k2 := rng.Binomial(n2, pooledRate)
	return PairLRT(k1, n1, k2, n2)
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

// RegionNullSimulator returns a closure simulating the Sacharidis et al.
// null: the region's and the outside's positive counts are both drawn at the
// global rate, and the region-vs-outside likelihood-ratio statistic is
// returned.
func RegionNullSimulator(rng *RNG, n, N int, globalRate float64) func() float64 {
	return func() float64 {
		k := rng.Binomial(n, globalRate)
		rest := rng.Binomial(N-n, globalRate)
		return RegionVsOutsideLRT(k, n, k+rest, N)
	}
}
