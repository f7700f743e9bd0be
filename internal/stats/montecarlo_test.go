package stats

import (
	"math"
	"testing"
)

func TestMonteCarloPExtremeObservation(t *testing.T) {
	rng := NewRNG(21)
	// Observed value far above anything the null produces.
	p := MonteCarloP(1e9, 999, func() float64 { return rng.Float64() })
	if !almostEq(p, 1.0/1000, 1e-12) {
		t.Errorf("p = %v, want 1/1000", p)
	}
}

func TestMonteCarloPTypicalObservation(t *testing.T) {
	rng := NewRNG(22)
	// Observed at the null median: p should be near 0.5.
	p := MonteCarloP(0.5, 999, func() float64 { return rng.Float64() })
	if p < 0.4 || p > 0.6 {
		t.Errorf("p = %v, want ~0.5", p)
	}
}

func TestMonteCarloPNeverZero(t *testing.T) {
	p := MonteCarloP(math.Inf(1), 99, func() float64 { return 0 })
	if p <= 0 {
		t.Errorf("p = %v, must be positive", p)
	}
	if p2 := MonteCarloP(1, 0, nil); p2 != 1 {
		t.Errorf("m=0 should give p=1, got %v", p2)
	}
}

// TestPairNullSimulatorCalibration checks the size of the Monte-Carlo test:
// under the null the p-value of a null observation is uniform up to ties,
// so the share of trials significant at alpha lies in a binomial band
// around alpha. The observed counts come from exactBinomialCDF by
// inversion, not from the sampler under test, so an error in that sampler
// shows instead of cancelling out.
func TestPairNullSimulatorCalibration(t *testing.T) {
	obsRNG, simRNG := NewRNG(23), NewRNG(24)
	const n1, n2, rate = 300, 400, 0.62
	const trials, m, alpha = 2000, 199, 0.05
	cdf1, cdf2 := exactBinomialCDF(n1, rate), exactBinomialCDF(n2, rate)
	sig := 0
	for tr := 0; tr < trials; tr++ {
		k1 := invertCDF(cdf1, obsRNG.Float64())
		k2 := invertCDF(cdf2, obsRNG.Float64())
		if MonteCarloP(PairLRT(k1, n1, k2, n2), m, PairNullSimulator(simRNG, n1, n2, rate)) <= alpha {
			sig++
		}
	}
	frac := float64(sig) / trials
	t.Logf("null rejection rate %.4f at alpha %v over %d trials", frac, alpha, trials)
	if se := math.Sqrt(alpha * (1 - alpha) / trials); math.Abs(frac-alpha) > 4*se {
		t.Errorf("null rejection rate %v at alpha=%v, want within 4 standard errors (%.4f)", frac, alpha, 4*se)
	}
}

func TestPairNullSimulatorPower(t *testing.T) {
	// A genuinely unfair pair should almost always be flagged.
	rng := NewRNG(24)
	n1, n2 := 500, 500
	k1 := 400 // 80% positive rate
	k2 := 200 // 40% positive rate
	pooled := float64(k1+k2) / float64(n1+n2)
	obs := PairLRT(k1, n1, k2, n2)
	p := MonteCarloP(obs, 999, PairNullSimulator(rng, n1, n2, pooled))
	if p > 0.01 {
		t.Errorf("blatant unfairness p = %v, want tiny", p)
	}
}

func TestRegionNullSimulatorCalibration(t *testing.T) {
	rng := NewRNG(25)
	n, N := 200, 5000
	rate := 0.62
	trials := 150
	sig := 0
	for tr := 0; tr < trials; tr++ {
		k := rng.Binomial(n, rate)
		rest := rng.Binomial(N-n, rate)
		obs := RegionVsOutsideLRT(k, n, k+rest, N)
		p := MonteCarloP(obs, 199, RegionNullSimulator(rng, n, N, rate))
		if p <= 0.05 {
			sig++
		}
	}
	frac := float64(sig) / float64(trials)
	if frac > 0.13 {
		t.Errorf("null rejection rate %v, want <= ~0.13", frac)
	}
}
