package stats

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

// AdaptiveMonteCarloP estimates the significance of an observed test
// statistic by simulation, following Section 3.2: simulate returns the
// statistic of one freshly simulated world under the null (larger means
// stronger evidence against it), and the p-value is the add-one rank
// estimator p = (1 + #{tau_sim >= tau_obs}) / (m + 1) over m worlds. It
// stops early for clearly non-significant observations: once the number of
// simulated statistics meeting or exceeding the observed one guarantees
// p > alpha — the count
// reaching mcStopCount(m, alpha), the rule NullStore stops on — no further
// simulation can change the significance decision, and the function returns
// a conservative lower bound on p.
//
// The returned significant flag is identical to the full m-world estimate's
// p <= alpha decision with the same generator, and p is exact whenever
// significant is true (and always when alpha >= 1, which never stops).
// Early stopping only truncates the stream of a pair that was going to be
// non-significant anyway, so audits remain deterministic.
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
