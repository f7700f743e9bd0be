package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBernoulliLogLikKnown(t *testing.T) {
	// 3 successes, 2 failures at rho=0.6: 3*ln(0.6)+2*ln(0.4).
	want := 3*math.Log(0.6) + 2*math.Log(0.4)
	if got := BernoulliLogLik(3, 5, 0.6); !almostEq(got, want, 1e-12) {
		t.Errorf("BernoulliLogLik = %v, want %v", got, want)
	}
}

func TestBernoulliLogLikEdges(t *testing.T) {
	if got := BernoulliLogLik(0, 5, 0); got != 0 {
		t.Errorf("k=0, rho=0 should be 0 (prob 1), got %v", got)
	}
	if got := BernoulliLogLik(5, 5, 1); got != 0 {
		t.Errorf("k=n, rho=1 should be 0, got %v", got)
	}
	if got := BernoulliLogLik(1, 5, 0); !math.IsInf(got, -1) {
		t.Errorf("impossible observation should be -Inf, got %v", got)
	}
	if got := BernoulliLogLik(4, 5, 1); !math.IsInf(got, -1) {
		t.Errorf("impossible observation should be -Inf, got %v", got)
	}
	if got := BernoulliLogLik(6, 5, 0.5); !math.IsNaN(got) {
		t.Errorf("k>n should be NaN, got %v", got)
	}
}

// Property: the MLE rho = k/n maximizes the Bernoulli log-likelihood.
func TestMaxBernoulliLogLikIsMaximum(t *testing.T) {
	f := func(kRaw, nRaw uint16, rhoRaw float64) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw) % (n + 1)
		rho := math.Abs(math.Mod(rhoRaw, 1))
		if rho == 0 {
			rho = 0.37
		}
		atMLE := MaxBernoulliLogLik(k, n)
		at := BernoulliLogLik(k, n, rho)
		return at <= atMLE+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLogLikRatio(t *testing.T) {
	if got := LogLikRatio(-10, -4); !almostEq(got, 12, 1e-12) {
		t.Errorf("LogLikRatio = %v, want 12", got)
	}
	if got := LogLikRatio(math.Inf(-1), math.Inf(-1)); got != 0 {
		t.Errorf("both -Inf should be 0, got %v", got)
	}
	if got := LogLikRatio(math.Inf(-1), -3); !math.IsInf(got, 1) {
		t.Errorf("impossible null should be +Inf, got %v", got)
	}
}

func TestPairLRTZeroWhenRatesEqual(t *testing.T) {
	if got := PairLRT(50, 100, 100, 200); !almostEq(got, 0, 1e-9) {
		t.Errorf("equal rates PairLRT = %v, want 0", got)
	}
}

func TestPairLRTPositiveAndMonotone(t *testing.T) {
	small := PairLRT(55, 100, 45, 100)
	large := PairLRT(90, 100, 10, 100)
	if small <= 0 || large <= 0 {
		t.Fatalf("LRT should be positive for unequal rates: %v, %v", small, large)
	}
	if large <= small {
		t.Errorf("larger gap should give larger statistic: %v vs %v", small, large)
	}
}

// Property: PairLRT is non-negative and symmetric in its two regions.
func TestPairLRTNonNegativeSymmetricQuick(t *testing.T) {
	f := func(p1Raw, n1Raw, p2Raw, n2Raw uint16) bool {
		n1 := int(n1Raw%2000) + 1
		n2 := int(n2Raw%2000) + 1
		p1 := int(p1Raw) % (n1 + 1)
		p2 := int(p2Raw) % (n2 + 1)
		a := PairLRT(p1, n1, p2, n2)
		b := PairLRT(p2, n2, p1, n1)
		return a >= -1e-9 && almostEq(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPairLRTMatchesChiSquareScale(t *testing.T) {
	// For moderate counts the LRT statistic approximates the chi-square
	// statistic of a 2x2 table; check against a hand-computed G-statistic.
	p1, n1, p2, n2 := 70, 100, 50, 100
	pool := float64(p1+p2) / float64(n1+n2)
	g := 2 * (float64(p1)*math.Log(0.7/pool) +
		float64(n1-p1)*math.Log(0.3/(1-pool)) +
		float64(p2)*math.Log(0.5/pool) +
		float64(n2-p2)*math.Log(0.5/(1-pool)))
	if got := PairLRT(p1, n1, p2, n2); !almostEq(got, g, 1e-9) {
		t.Errorf("PairLRT = %v, want G = %v", got, g)
	}
}

func TestRegionVsOutsideLRT(t *testing.T) {
	// Region exactly at the global rate: statistic 0.
	if got := RegionVsOutsideLRT(62, 100, 620, 1000); !almostEq(got, 0, 1e-9) {
		t.Errorf("at-global-rate LRT = %v, want 0", got)
	}
	// Region far from the global rate: strongly positive.
	if got := RegionVsOutsideLRT(90, 100, 620, 1000); got < 10 {
		t.Errorf("deviating region LRT = %v, want large", got)
	}
	if got := RegionVsOutsideLRT(10, 0, 100, 1000); got != 0 {
		t.Errorf("empty region should be 0, got %v", got)
	}
	if got := RegionVsOutsideLRT(10, 100, 10, 100); got != 0 {
		t.Errorf("region covering all data should be 0, got %v", got)
	}
}

// The pairwise likelihood-ratio statistic should follow its chi-square(1)
// asymptotics at large counts under the null, whose survival function is
// P(|Z| > sqrt(tau)) = 2*NormalSF(sqrt(tau)).
func TestPairLRTAsymptoticallyChiSquare(t *testing.T) {
	rng := NewRNG(77)
	n := 5000
	rate := 0.6
	var below95 int
	trials := 400
	for i := 0; i < trials; i++ {
		k1, k2 := rng.Binomial(n, rate), rng.Binomial(n, rate)
		tau := PairLRT(k1, n, k2, n)
		if 2*NormalSF(math.Sqrt(tau)) > 0.05 {
			below95++
		}
	}
	frac := float64(below95) / float64(trials)
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("null taus within chi-square 95%% band: %v, want ~0.95", frac)
	}
}
