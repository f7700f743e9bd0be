package stats

import (
	"math"
	"sync"
	"testing"
)

// TestPairNullCachePValueMatchesEstimator asserts the store's binary-search
// p-value is exactly MonteCarloP's add-one estimator over the same key-seeded
// stream: the store changes where the null sample lives, not what it is.
func TestPairNullCachePValueMatchesEstimator(t *testing.T) {
	const seed, worlds = 42, 499
	s := NewNullStore(seed, worlds)
	var scratch []float64
	for _, tc := range []struct {
		n1, n2, pooled int
		observed       float64
	}{
		{300, 300, 180, 0.5},
		{300, 300, 180, 2.0},
		{300, 300, 180, 9.0},
		{120, 500, 77, 1.3},
		{500, 120, 77, 1.3}, // normalized to the previous key
		{50, 50, 5, 0.0},
	} {
		got, _ := s.PValue(tc.n1, tc.n2, tc.pooled, tc.observed, &scratch)
		n1, n2 := tc.n1, tc.n2
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		rng := NewRNG(nullCacheSeed(seed, pairNullKey{n1: n1, n2: n2, pooledPositives: tc.pooled}))
		pooledRate := float64(tc.pooled) / float64(n1+n2)
		want := MonteCarloP(tc.observed, worlds, PairNullSimulator(rng, n1, n2, pooledRate))
		if got != want {
			t.Errorf("PValue(%d,%d,%d,%v) = %v, want estimator's %v",
				tc.n1, tc.n2, tc.pooled, tc.observed, got, want)
		}
	}
}

// TestPairNullCacheDeterministicConcurrent hammers one store from many
// goroutines and asserts every answer matches a serial reference store, and
// that each key is filled exactly once: sample values must not depend on
// which goroutine simulates them or on arrival order.
func TestPairNullCacheDeterministicConcurrent(t *testing.T) {
	const seed, worlds = 7, 199
	keys := []struct{ n1, n2, pooled int }{
		{300, 300, 100}, {300, 300, 200}, {250, 310, 150},
		{100, 100, 50}, {400, 200, 333}, {80, 90, 60},
	}
	taus := []float64{0.1, 0.7, 1.5, 3.0, 6.0}

	ref := NewNullStore(seed, worlds)
	var scratch []float64
	want := map[[4]float64]float64{}
	for _, k := range keys {
		for _, tau := range taus {
			p, _ := ref.PValue(k.n1, k.n2, k.pooled, tau, &scratch)
			want[[4]float64{float64(k.n1), float64(k.n2), float64(k.pooled), tau}] = p
		}
	}

	s := NewNullStore(seed, worlds)
	var wg sync.WaitGroup
	var mu sync.Mutex
	fills := 0
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch []float64
			// Each goroutine walks the keys from a different starting offset,
			// so insertion races cover every key.
			for i := range keys {
				k := keys[(i+g)%len(keys)]
				for _, tau := range taus {
					p, filled := s.PValue(k.n1, k.n2, k.pooled, tau, &scratch)
					if filled {
						mu.Lock()
						fills++
						mu.Unlock()
					}
					if p != want[[4]float64{float64(k.n1), float64(k.n2), float64(k.pooled), tau}] {
						errs <- "concurrent p-value diverged from serial reference"
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if fills != len(keys) {
		t.Errorf("%d fills for %d keys, want exactly one per key", fills, len(keys))
	}
}

// TestPairNullCacheStatsAccounting checks the fill contract: one fill per
// stored key, none on later lookups, and past the store's bound a fill on
// every lookup of an unkept key — into the caller's scratch, with the value
// the reference computes — while kept keys still answer without a fill.
func TestPairNullCacheStatsAccounting(t *testing.T) {
	const seed, worlds = 3, 99
	s := NewNullStore(seed, worlds)
	var scratch []float64
	p1, filled := s.PValue(300, 300, 150, 1.0, &scratch)
	if !filled {
		t.Error("first lookup did not fill")
	}
	if p2, again := s.PValue(300, 300, 150, 1.0, &scratch); again || p2 != p1 {
		t.Errorf("second lookup: filled=%v p=%v, want no fill with p=%v", again, p2, p1)
	}
	if scratch != nil {
		t.Error("a stored fill used the caller's scratch")
	}

	// Fill the store to its bound with cheap keys (n1 = 0 draws nothing).
	for k := 1; s.stored.Load() < nullStoreMax; k++ {
		s.PValue(0, k, 0, 0, &scratch)
	}
	for k := 0; k < 3; k++ {
		want := NullCacheReferenceP(seed, worlds, 200+k, 300, 100+k, 2.0)
		for rep := 0; rep < 2; rep++ {
			p, filled := s.PValue(200+k, 300, 100+k, 2.0, &scratch)
			if !filled || p != want {
				t.Errorf("past-bound key %d lookup %d: (p=%v, filled=%v), want (%v, true)", k, rep, p, filled, want)
			}
		}
	}
	if len(scratch) != worlds {
		t.Errorf("past-bound fills left a %d-long scratch, want %d", len(scratch), worlds)
	}
	if got := s.stored.Load(); got != nullStoreMax {
		t.Errorf("store keeps %d samples past its bound of %d", got, nullStoreMax)
	}
	if p, filled := s.PValue(300, 300, 150, 1.0, &scratch); filled || p != p1 {
		t.Errorf("stored key after the bound: (p=%v, filled=%v), want (%v, false)", p, filled, p1)
	}
}

// TestPairNullCacheSeedLiveness asserts the store seed actually reaches the
// simulation streams: across several seeds, some mid-distribution p-value
// must differ (an extreme tau would pin p at 1/(m+1) under every seed and
// prove nothing).
func TestPairNullCacheSeedLiveness(t *testing.T) {
	var ps []float64
	var scratch []float64
	for seed := uint64(1); seed <= 4; seed++ {
		p, _ := NewNullStore(seed, 199).PValue(300, 300, 180, 1.0, &scratch) // tau = 1: well inside the null bulk
		ps = append(ps, p)
	}
	for _, p := range ps[1:] {
		if p != ps[0] {
			return
		}
	}
	t.Fatalf("p-values identical across seeds %v; store seeding looks dead", ps)
}

// TestPairNullCacheDisabledWorlds pins the degenerate contract: a store built
// with zero worlds answers p = 1 and never fills.
func TestPairNullCacheDisabledWorlds(t *testing.T) {
	var scratch []float64
	if p, filled := NewNullStore(1, 0).PValue(10, 10, 5, 3.0, &scratch); p != 1 || filled {
		t.Errorf("zero-world store answered (%v, %v), want (1, false)", p, filled)
	}
}

// TestMannWhitneySeparatedPBounds asserts the closed-form separated-sample
// p-value is a true upper bound on the exact U test whenever the two samples'
// ranges are disjoint — the soundness fact the audit's conservative
// Mann–Whitney summary bound relies on — and that it is exact for tie-free
// separated samples.
func TestMannWhitneySeparatedPBounds(t *testing.T) {
	for _, tc := range []struct{ n1, n2 int }{
		{5, 5}, {10, 30}, {40, 40}, {200, 300}, {1, 50},
	} {
		bound := MannWhitneySeparatedP(tc.n1, tc.n2)
		if math.IsNaN(bound) || bound <= 0 || bound > 1 {
			t.Fatalf("SeparatedP(%d,%d) = %v", tc.n1, tc.n2, bound)
		}
		// Tie-free separated samples: exact equality with the real test.
		lo := make([]float64, tc.n1)
		hi := make([]float64, tc.n2)
		for i := range lo {
			lo[i] = float64(i)
		}
		for i := range hi {
			hi[i] = 1e6 + float64(i)
		}
		if p := MannWhitneyU(lo, hi).P; math.Abs(p-bound) > 1e-12 {
			t.Errorf("(%d,%d) tie-free: exact p = %v, bound = %v", tc.n1, tc.n2, p, bound)
		}
		// Heavy internal ties shrink the null variance and push |z| further
		// out: the exact p must stay at or below the bound.
		for i := range lo {
			lo[i] = float64(i % 2)
		}
		for i := range hi {
			hi[i] = 1e6 + float64(i%3)
		}
		if p := MannWhitneyU(lo, hi).P; p > bound+1e-12 {
			t.Errorf("(%d,%d) tied: exact p = %v exceeds bound %v", tc.n1, tc.n2, p, bound)
		}
	}
	if !math.IsNaN(MannWhitneySeparatedP(0, 5)) || !math.IsNaN(MannWhitneySeparatedP(5, 0)) {
		t.Error("empty sample must yield NaN")
	}
}

// TestKolmogorovSmirnovSeparatedPExact asserts the closed form equals the
// real KS test on range-disjoint samples, where D is exactly 1.
func TestKolmogorovSmirnovSeparatedPExact(t *testing.T) {
	for _, tc := range []struct{ n1, n2 int }{
		{5, 5}, {10, 30}, {40, 40}, {100, 250},
	} {
		bound := KolmogorovSmirnovSeparatedP(tc.n1, tc.n2)
		lo := make([]float64, tc.n1)
		hi := make([]float64, tc.n2)
		for i := range lo {
			lo[i] = float64(i)
		}
		for i := range hi {
			hi[i] = 1e6 + float64(i)
		}
		res := KolmogorovSmirnov(lo, hi)
		if res.D != 1 {
			t.Fatalf("(%d,%d): separated D = %v, want 1", tc.n1, tc.n2, res.D)
		}
		if math.Abs(res.P-bound) > 1e-12 {
			t.Errorf("(%d,%d): exact p = %v, closed form = %v", tc.n1, tc.n2, res.P, bound)
		}
	}
	if !math.IsNaN(KolmogorovSmirnovSeparatedP(0, 5)) {
		t.Error("empty sample must yield NaN")
	}
}
