package stats

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// nullLookupKeys and nullLookupObserved span the store's lookup paths: keys
// below and above the old 2048-individual table bound (windows off zero and
// draws outside them included), and observed values inside the null bulk,
// in both tails, and at NaN and ±Inf.
var (
	nullLookupKeys = []struct{ n1, n2, pos int }{
		{300, 300, 180}, {500, 120, 77}, {1, 1, 0}, {200, 200, 400},
		{1500, 1400, 900}, {3000, 5000, 40}, {1 << 20, 1 << 20, 1 << 20},
	}
	nullLookupObserved = []float64{0, 0.4, 1.5, 6, 40, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
)

// TestPairNullCachePValueMatchesEstimator asserts the store's p-value is
// exactly MonteCarloP's add-one estimator over the same key-seeded stream:
// the store changes where the null sample lives, not what it is.
func TestPairNullCachePValueMatchesEstimator(t *testing.T) {
	const seed, worlds = 42, 499
	s := NewNullStore(seed, worlds, 1)
	var scratch NullScratch
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
		got, _, _ := s.PValue(tc.n1, tc.n2, tc.pooled, tc.observed, &scratch)
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

// TestPairNullCacheDeterministicConcurrent releases many goroutines at once
// onto a fresh store, so the first lookup of each key races with its repeats
// — and its completion with their searches — and asserts every answer is the
// uncached reference p-value, each key is filled exactly once, and each key
// draws exactly m worlds in total: sample values must not depend on which
// goroutine simulates them or on arrival order. It runs at a cut that never
// stops a first lookup and at cuts that stop most of them. Run under -race
// it also pins the prefix-then-completion handoff.
func TestPairNullCacheDeterministicConcurrent(t *testing.T) {
	const seed, worlds, goroutines = 0xC0F1257, 99, 8
	for _, cut := range []float64{1, 0.05, 0.3} {
		want := map[[2]int]float64{}
		for ki, k := range nullLookupKeys {
			for oi, obs := range nullLookupObserved {
				want[[2]int{ki, oi}] = NullCacheReferenceP(seed, worlds, k.n1, k.n2, k.pos, obs, cut)
			}
		}
		s := NewNullStore(seed, worlds, cut)
		start := make(chan struct{})
		var fills, drawn atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var scratch NullScratch
				<-start
				for i := range nullLookupKeys {
					ki := (i + g) % len(nullLookupKeys)
					k := nullLookupKeys[ki]
					for j := range nullLookupObserved {
						oi := (j + g) % len(nullLookupObserved)
						p, n, filled := s.PValue(k.n1, k.n2, k.pos, nullLookupObserved[oi], &scratch)
						drawn.Add(int64(n))
						if filled {
							fills.Add(1)
						}
						if w := want[[2]int{ki, oi}]; p != w {
							t.Errorf("cut %v goroutine %d key %v obs %v: p=%v, want %v", cut, g, k, nullLookupObserved[oi], p, w)
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if got := fills.Load(); got != int64(len(nullLookupKeys)) {
			t.Errorf("cut %v: %d fills for %d keys, want exactly one per key", cut, got, len(nullLookupKeys))
		}
		if got := drawn.Load(); got != int64(len(nullLookupKeys)*worlds) {
			t.Errorf("cut %v: %d worlds drawn for %d keys looked up repeatedly, want %d each", cut, got, len(nullLookupKeys), worlds)
		}
	}
}

// TestPairNullCacheStatsAccounting checks the fill contract: one fill per
// stored key, none on later lookups, and past the store's bound a fill on
// every lookup of an unkept key — into the caller's scratch, with the value
// the reference computes — while kept keys still answer without a fill.
func TestPairNullCacheStatsAccounting(t *testing.T) {
	const seed, worlds = 3, 99
	s := NewNullStore(seed, worlds, 1)
	var scratch NullScratch
	p1, n, filled := s.PValue(300, 300, 150, 1.0, &scratch)
	if !filled || n != worlds {
		t.Errorf("first lookup: filled=%v drew %d worlds, want a fill of all %d at cut 1", filled, n, worlds)
	}
	if p2, n, again := s.PValue(300, 300, 150, 1.0, &scratch); again || n != 0 || p2 != p1 {
		t.Errorf("second lookup: filled=%v drew %d p=%v, want no fill, no worlds, p=%v", again, n, p2, p1)
	}
	if scratch.sample != nil {
		t.Error("a stored fill used the caller's sample buffer")
	}
	// Fill the store to its bound with cheap keys (n1 = 0 draws nothing).
	for k := 1; s.stored.Load() < nullStoreMax; k++ {
		s.PValue(0, k, 0, 0, &scratch)
	}
	for k := 0; k < 3; k++ {
		want := NullCacheReferenceP(seed, worlds, 200+k, 300, 100+k, 2.0, 1)
		for rep := 0; rep < 2; rep++ {
			p, n, filled := s.PValue(200+k, 300, 100+k, 2.0, &scratch)
			if !filled || n != worlds || p != want {
				t.Errorf("past-bound key %d lookup %d: (p=%v, filled=%v, drew %d), want (%v, true, %d)", k, rep, p, filled, n, want, worlds)
			}
		}
	}
	if len(scratch.sample) != worlds {
		t.Errorf("past-bound fills left a %d-long sample buffer, want %d", len(scratch.sample), worlds)
	}
	if got := s.stored.Load(); got != nullStoreMax {
		t.Errorf("store keeps %d samples past its bound of %d", got, nullStoreMax)
	}
	if p, _, filled := s.PValue(300, 300, 150, 1.0, &scratch); filled || p != p1 {
		t.Errorf("stored key after the bound: (p=%v, filled=%v), want (%v, false)", p, filled, p1)
	}
}

// TestNullStoreEarlyStop pins the early stop: a first lookup whose p-value
// is above the cut draws only the worlds that prove it and answers the
// canonical above-cut value; the key's second lookup draws the rest, so the
// two together draw exactly m; the lookups after draw nothing; and the same
// lookups in the opposite order answer the same values. A first lookup whose
// p-value is at or below the cut draws all m worlds and answers it exactly.
func TestNullStoreEarlyStop(t *testing.T) {
	const seed, worlds, cut = 0xE2, 999, 0.05
	canonical := float64(1+mcStopCount(worlds, cut)) / float64(worlds+1)
	if canonical <= cut {
		t.Fatalf("canonical above-cut value %v is not above the cut %v", canonical, cut)
	}
	var scratch NullScratch
	const n1, n2, pos = 300, 300, 180
	const bulk, tail = 0.5, 40.0 // inside the null bulk; beyond every world
	s := NewNullStore(seed, worlds, cut)
	p, n, filled := s.PValue(n1, n2, pos, bulk, &scratch)
	if !filled || p != canonical || n >= worlds/2 {
		t.Fatalf("first lookup in the bulk: (p=%v, drew %d, filled=%v), want (%v, far fewer than %d, true)", p, n, filled, canonical, worlds)
	}
	first := n
	p, n, filled = s.PValue(n1, n2, pos, tail, &scratch)
	if filled || first+n != worlds || p != 1/float64(worlds+1) {
		t.Fatalf("completing lookup: (p=%v, drew %d, filled=%v), want (%v, %d, false)", p, n, filled, 1/float64(worlds+1), worlds-first)
	}
	if p, n, _ = s.PValue(n1, n2, pos, bulk, &scratch); p != canonical || n != 0 {
		t.Fatalf("later lookup: (p=%v, drew %d), want (%v, 0)", p, n, canonical)
	}

	r := NewNullStore(seed, worlds, cut)
	if p, n, _ = r.PValue(n1, n2, pos, tail, &scratch); p != 1/float64(worlds+1) || n != worlds {
		t.Fatalf("first lookup in the tail: (p=%v, drew %d), want (%v, %d)", p, n, 1/float64(worlds+1), worlds)
	}
	if p, n, _ = r.PValue(n1, n2, pos, bulk, &scratch); p != canonical || n != 0 {
		t.Fatalf("reversed order, bulk lookup: (p=%v, drew %d), want (%v, 0)", p, n, canonical)
	}
}

// TestMCStopCountIsFlagPredicate pins mcStopCount to the flag predicate it
// negates: for every m and every alpha on a 0.001 grid, a count g proves
// p > alpha exactly when its add-one p-value fails p <= alpha.
func TestMCStopCountIsFlagPredicate(t *testing.T) {
	for _, m := range []int{19, 99, 199, 499, 999, 1999, 4999, 9999} {
		for a := 1; a < 1000; a++ {
			alpha := float64(a) / 1000
			stop := mcStopCount(m, alpha)
			for g := 0; g <= m; g++ {
				flagged := float64(1+g)/float64(m+1) <= alpha
				if (g >= stop) == flagged {
					t.Fatalf("m=%d alpha=%v g=%d: stop count %d disagrees with p <= alpha (%v)", m, alpha, g, stop, flagged)
				}
			}
		}
	}
	for _, cut := range []float64{1, 2, math.Inf(1), math.NaN()} {
		if got := mcStopCount(999, cut); got != 1000 {
			t.Errorf("mcStopCount(999, %v) = %d, want 1000 (never stop)", cut, got)
		}
	}
	for _, cut := range []float64{0, -1, 1e-4, math.Inf(-1)} {
		if got := mcStopCount(999, cut); got != 0 {
			t.Errorf("mcStopCount(999, %v) = %d, want 0 (no count is flaggable)", cut, got)
		}
	}
}

// TestNullStoreLookupPathsMatchReference drives every key through each of
// the store's answers — the first lookup's (possibly stopped) linear count,
// the completing lookup's sort-then-search, later searches, and past-bound
// fills into the caller's scratch — and asserts each is bit-identical to the
// uncached NullCacheReferenceP at the store's cut, for every observed value
// including NaN and ±Inf.
func TestNullStoreLookupPathsMatchReference(t *testing.T) {
	const seed, worlds = 0x5EA2C4, 99
	for _, cut := range []float64{1, 0.01, 0.2} {
		var s *NullStore
		var scratch NullScratch
		check := func(path string, k struct{ n1, n2, pos int }, obs float64, wantFilled bool) {
			t.Helper()
			p, _, filled := s.PValue(k.n1, k.n2, k.pos, obs, &scratch)
			want := NullCacheReferenceP(seed, worlds, k.n1, k.n2, k.pos, obs, cut)
			if p != want || filled != wantFilled {
				t.Errorf("cut %v %s key %v obs %v: (p=%v, filled=%v), want (%v, %v)", cut, path, k, obs, p, filled, want, wantFilled)
			}
		}
		for _, obs := range nullLookupObserved {
			s = NewNullStore(seed, worlds, cut)
			for _, k := range nullLookupKeys {
				check("first", k, obs, true)
				check("repeat", k, obs, false)
			}
		}
		for _, k := range nullLookupKeys {
			for _, obs := range nullLookupObserved {
				check("later", k, obs, false)
			}
		}

		// Fill the store to its bound with cheap keys (n1 = 0 draws
		// nothing): every lookup of a new key now fills the caller's scratch.
		for k := 1; s.stored.Load() < nullStoreMax; k++ {
			s.PValue(0, k, 0, 0, &scratch)
		}
		for _, k := range nullLookupKeys {
			k.pos++
			for _, obs := range nullLookupObserved {
				check("past-bound", k, obs, true)
			}
		}
	}
}

// TestPairNullCacheSeedLiveness asserts the store seed actually reaches the
// simulation streams: across several seeds, some mid-distribution p-value
// must differ (an extreme tau would pin p at 1/(m+1) under every seed and
// prove nothing).
func TestPairNullCacheSeedLiveness(t *testing.T) {
	var ps []float64
	var scratch NullScratch
	for seed := uint64(1); seed <= 4; seed++ {
		p, _, _ := NewNullStore(seed, 199, 1).PValue(300, 300, 180, 1.0, &scratch) // tau = 1: well inside the null bulk
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
	var scratch NullScratch
	if p, n, filled := NewNullStore(1, 0, 1).PValue(10, 10, 5, 3.0, &scratch); p != 1 || n != 0 || filled {
		t.Errorf("zero-world store answered (%v, %d, %v), want (1, 0, false)", p, n, filled)
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

// TestNullStoreConcurrentPastBound runs 8 goroutines over overlapping key
// sets that together exceed nullStoreMax, so inserts race with hits, with
// each other, and with the overflow path once the table is full. Every
// p-value must equal a sequential store's, the store must keep at most
// nullStoreMax samples, each kept key must fill exactly once, and each key
// left out must fill on every lookup. Run under -race it pins the table's
// publish-after-key-set discipline.
func TestNullStoreConcurrentPastBound(t *testing.T) {
	const seed, worlds, goroutines, cut = 11, 19, 8, 0.3
	type key struct{ n1, n2, pos int }
	var keys []key
	for n2 := 1; len(keys) < nullStoreMax+nullStoreMax/4; n2++ {
		for n1 := 1; n1 <= n2 && n1 <= 6; n1++ {
			keys = append(keys, key{n1, n2, (n1 + n2) / 3})
		}
	}
	observed := []float64{0, 0.5, 2}
	seq := NewNullStore(seed, worlds, cut)
	var scratch NullScratch
	want := make([][]float64, len(keys))
	for ki, k := range keys {
		for _, o := range observed {
			p, _, _ := seq.PValue(k.n1, k.n2, k.pos, o, &scratch)
			want[ki] = append(want[ki], p)
		}
	}

	s := NewNullStore(seed, worlds, cut)
	fills := make([]atomic.Int64, len(keys))
	lookups := make([]atomic.Int64, len(keys))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch NullScratch
			<-start
			// Each goroutine takes three quarters of the keys, starting at
			// its own offset, so every key is shared by several of them.
			for i := 0; i < 3*len(keys)/4; i++ {
				ki := (i + g*len(keys)/goroutines) % len(keys)
				k := keys[ki]
				for oi, o := range observed {
					p, _, filled := s.PValue(k.n1, k.n2, k.pos, o, &scratch)
					lookups[ki].Add(1)
					if filled {
						fills[ki].Add(1)
					}
					if p != want[ki][oi] {
						t.Errorf("goroutine %d key %v observed %v: p=%v, want %v", g, k, o, p, want[ki][oi])
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if got := s.stored.Load(); got != nullStoreMax {
		t.Fatalf("store keeps %d samples, want exactly its bound %d", got, nullStoreMax)
	}
	kept := 0
	for ki, k := range keys {
		e, _ := s.find(newPairNullKey(k.n1, k.n2, k.pos), nullKeyHash(newPairNullKey(k.n1, k.n2, k.pos)))
		switch n, l := fills[ki].Load(), lookups[ki].Load(); {
		case e != nil:
			kept++
			if n != 1 {
				t.Errorf("kept key %v filled %d times, want once", k, n)
			}
		case n != l:
			t.Errorf("key %v left out of the store filled %d of %d lookups, want all", k, n, l)
		}
	}
	if kept != nullStoreMax {
		t.Errorf("%d keys found in the table, want %d", kept, nullStoreMax)
	}
}
