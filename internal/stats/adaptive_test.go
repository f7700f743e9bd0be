package stats

import (
	"fmt"
	"testing"

	"lcsf/internal/testutil"
)

// AdaptiveMonteCarloP must agree with MonteCarloP on the significance
// decision for the same generator stream, and report the exact p-value
// whenever significant.
func TestAdaptiveAgreesWithExact(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		seed := uint64(1000 + trial)
		n1, n2 := 200, 300
		rate := 0.6
		gen := NewRNG(seed)
		k1 := gen.Binomial(n1, rate)
		// Mix null-like and alternative-like observations.
		k2 := gen.Binomial(n2, rate)
		if trial%3 == 0 {
			k2 = gen.Binomial(n2, 0.35)
		}
		obs := PairLRT(k1, n1, k2, n2)
		m, alpha := 499, 0.05

		exact := MonteCarloP(obs, m, PairNullSimulator(NewRNG(seed+7), n1, n2, rate))
		adaptP, adaptSig := AdaptiveMonteCarloP(obs, m, alpha, PairNullSimulator(NewRNG(seed+7), n1, n2, rate))

		if adaptSig != (exact <= alpha) {
			t.Fatalf("trial %d: adaptive sig=%v, exact p=%v", trial, adaptSig, exact)
		}
		if adaptSig {
			// Same stream, same counts: the significant p-value is exact.
			testutil.InDelta(t, fmt.Sprintf("trial %d significant p", trial), adaptP, exact, 0)
		}
		if !adaptSig && adaptP > 1 {
			t.Fatalf("trial %d: p bound %v > 1", trial, adaptP)
		}
	}
}

func TestAdaptiveEdgeCases(t *testing.T) {
	p0, sig0 := AdaptiveMonteCarloP(1, 0, 0.05, nil)
	if sig0 {
		t.Error("m=0: unexpectedly significant")
	}
	testutil.InDelta(t, "m=0 p-value", p0, 1, 0)
	// Observation above everything: must run the full m and be significant.
	calls := 0
	p, sig := AdaptiveMonteCarloP(1e18, 99, 0.05, func() float64 { calls++; return 0 })
	if !sig {
		t.Errorf("extreme observation not significant (p=%v)", p)
	}
	testutil.InDelta(t, "extreme observation p", p, 0.01, 0)
	if calls != 99 {
		t.Errorf("significant path must run all worlds, ran %d", calls)
	}
	// Observation below everything: stops early.
	calls = 0
	_, sig = AdaptiveMonteCarloP(-1, 999, 0.05, func() float64 { calls++; return 0 })
	if sig {
		t.Error("hopeless observation flagged significant")
	}
	if calls >= 999 {
		t.Errorf("early stop did not trigger: %d calls", calls)
	}
}

// TestAdaptiveStopsOnFlagPredicate is the regression test for a stop rule
// that was not the flag predicate: at m = 199 and alpha = 0.145, alpha*(m+1)
// rounds to 28.999999999999996, so the old test 1+geq > alpha*(m+1) stopped
// at 28 exceedances and reported significant=false for p = 29/200 = 0.145,
// which MonteCarloP's p <= alpha flags. The stop now comes only at the count
// mcStopCount proves unflaggable.
func TestAdaptiveStopsOnFlagPredicate(t *testing.T) {
	const m, alpha = 199, 0.145
	calls := 0
	simulate := func() float64 { // 28 worlds at or above the observed 0.5
		calls++
		if calls <= 28 {
			return 1
		}
		return 0
	}
	p, sig, st := AdaptiveMonteCarloPStats(0.5, m, alpha, simulate)
	calls = 0
	want := MonteCarloP(0.5, m, simulate)
	if p != want || sig != (want <= alpha) {
		t.Fatalf("adaptive (p=%v, significant=%v), MonteCarloP p=%v flags %v", p, sig, want, want <= alpha)
	}
	if !sig || st.EarlyStopped || st.Worlds != m {
		t.Fatalf("significant p=%v: significant=%v stats %+v, want a full run", p, sig, st)
	}
}
