package verify

import (
	"math"
	"math/big"
	"sort"
	"testing"

	"lcsf/internal/stats"
)

// The calibration judge checks that a Monte-Carlo p-value means what it
// says. For a null-store key (n1, n2, k) both regions' positive counts are
// Binomial(n_i, k/(n1+n2)) under the paper's null (Section 3.2), so the
// exact tail P(LRT >= tau) is a finite sum over the two binomial pmfs; no
// simulator is involved. The store's tail at tau, counted over its worlds at
// a fixed seed, must lie in a binomial band around that exact tail.

// calibrationKeys is the judge's key grid (n1, n2, pooled positives). It
// spans the places where a binomial sampler is most likely to go wrong:
// n = 64/65 and per-region means near 30 (where approximate samplers
// switch method), small-mean skewed keys, and LAR-like keys — n from 65
// to 8,000 at a pooled rate near 0.8.
var calibrationKeys = []struct{ n1, n2, k int }{
	{64, 64, 64},      // rate 0.5, n = 64 on both sides
	{64, 65, 60},      // rate 0.465: n = 64 and 65, means 29.8 and 30.2
	{65, 65, 62},      // rate 0.477, mean 31
	{150, 151, 60},    // rate 0.199: means 29.9 and 30.1
	{300, 300, 120},   // rate 0.2, mean 60
	{200, 200, 4},     // rate 0.01, mean 2
	{1000, 1000, 4},   // rate 0.002, mean 2
	{100, 400, 10},    // rate 0.02, means 2 and 8
	{50, 2000, 41},    // rate 0.02, means 1 and 40
	{65, 120, 148},    // LAR-like, rate 0.8
	{190, 190, 323},   // rate 0.85
	{400, 1500, 1520}, // rate 0.8
	{1500, 1500, 2400},
	{3000, 8000, 8800},
	{8000, 8000, 12800},
}

// calibrationWorlds is the Monte-Carlo sample per key: the band's standard
// error is 0.07 percentage points of rejection rate at alpha 0.05 and
// 0.13 at alpha 0.2.
const calibrationWorlds = 100_000

// calibrationZ is the band's half-width in standard errors. Thirty checks
// at z = 4 leave a well-calibrated sampler a 0.2% chance of one failure at
// an unlucky seed; a seed is fixed, so the outcome is reproducible.
const calibrationZ = 4

// exactBinomial returns the Binomial(n, p) pmf and CDF over the full support
// [0, n]. Both are carried in 128-bit big.Float arithmetic — q^n at k = 0,
// then pmf(k+1) = pmf(k)·(n-k)·p / ((k+1)·q) with q = 1-p exact — and each
// entry is rounded to float64 once, so every value is within one float64
// rounding of the true one. Nothing here shares code or arithmetic with the
// stats sampler. n <= 0, p <= 0 and NaN p put all mass on 0, p >= 1 on n.
func exactBinomial(n int, p float64) (pmf, cdf []float64) {
	n = max(n, 0)
	pmf, cdf = make([]float64, n+1), make([]float64, n+1)
	if !(p > 0) || p >= 1 {
		at := 0
		if p >= 1 {
			at = n
		}
		pmf[at] = 1
		for k := at; k <= n; k++ {
			cdf[k] = 1
		}
		return pmf, cdf
	}
	const prec = 128
	newF := func() *big.Float { return new(big.Float).SetPrec(prec) }
	bp := newF().SetFloat64(p)
	bq := newF().Sub(newF().SetInt64(1), bp)
	x := newF().SetInt64(1) // q^n by square-and-multiply
	for sq, e := newF().Set(bq), n; e > 0; e >>= 1 {
		if e&1 == 1 {
			x.Mul(x, sq)
		}
		sq.Mul(sq, sq)
	}
	sum, t := newF(), newF()
	for k := 0; ; k++ {
		pmf[k], _ = x.Float64()
		// A term below the sum's last bit leaves the sum unchanged; skipping
		// it saves big.Float aligning operands whose exponents lie far apart.
		if sum.Sign() == 0 || x.MantExp(nil) > sum.MantExp(nil)-prec-8 {
			sum.Add(sum, x)
		}
		cdf[k], _ = sum.Float64()
		if k == n {
			break
		}
		x.Mul(x, t.SetInt64(int64(n-k)))
		x.Mul(x, bp)
		x.Quo(x, t.Mul(t.SetInt64(int64(k+1)), bq))
	}
	return pmf, cdf
}

// lrtAtom is one value of the pairwise LRT statistic under the null and its
// probability.
type lrtAtom struct{ tau, prob float64 }

// exactLRTNull returns the exact null distribution of stats.PairLRT for the
// key (n1, n2, k), atoms sorted by decreasing tau with equal values merged.
// Counts whose pmf is below 1e-18 are skipped: together they carry under
// 1e-14 of the mass, far inside any band the judge draws.
func exactLRTNull(n1, n2, k int) []lrtAtom {
	rate := float64(k) / float64(n1+n2)
	pmf1, _ := exactBinomial(n1, rate)
	pmf2, _ := exactBinomial(n2, rate)
	var atoms []lrtAtom
	for k1, q1 := range pmf1 {
		if q1 < 1e-18 {
			continue
		}
		for k2, q2 := range pmf2 {
			if q2 < 1e-18 {
				continue
			}
			atoms = append(atoms, lrtAtom{stats.PairLRT(k1, n1, k2, n2), q1 * q2})
		}
	}
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].tau > atoms[j].tau })
	out := atoms[:0]
	for _, a := range atoms {
		if len(out) > 0 && out[len(out)-1].tau == a.tau {
			out[len(out)-1].prob += a.prob
			continue
		}
		out = append(out, a)
	}
	return out
}

// criticalValue returns the exact level-alpha critical value of a null
// distribution — the least support value tau with P(LRT >= tau) <= alpha —
// and that tail probability; ok is false when even the largest value's
// atom exceeds alpha.
func criticalValue(atoms []lrtAtom, alpha float64) (tau, tail float64, ok bool) {
	for _, a := range atoms {
		if tail+a.prob > alpha {
			break
		}
		tail += a.prob
		tau, ok = a.tau, true
	}
	return tau, tail, ok
}

// TestBinomialWindowMass checks, for both samplers of every key of the
// grid, that the exact Binomial pmf mass outside the sampler's window,
// summed over the full support [0, n], is below 2^-53 — the resolution of
// the one uniform a draw takes, so the window drops no count a draw could
// select with appreciable probability.
func TestBinomialWindowMass(t *testing.T) {
	for _, key := range calibrationKeys {
		rate := float64(key.k) / float64(key.n1+key.n2)
		for _, n := range []int{key.n1, key.n2} {
			lo, hi := stats.NewBinomialSampler(n, rate).Window()
			pmf, _ := exactBinomial(n, rate)
			outside := 0.0
			for k, q := range pmf {
				if k < lo || k > hi {
					outside += q
				}
			}
			if outside >= 0x1p-53 {
				t.Errorf("Binomial(%d, %v): window [%d, %d] leaves out mass %.3g, want < 2^-53", n, rate, lo, hi, outside)
			}
		}
	}
}

// TestNullCalibration is the calibration judge. For every key of the grid
// and alpha in {0.05, 0.2} it takes the exact critical value, asks a
// NullStore (every world drawn, at a fixed seed) for the add-one p-value of
// an observation at it, recovers the count of worlds at or above it, and
// requires that count within calibrationZ binomial standard errors of the
// exact tail times the worlds. The log lists each key's Monte-Carlo and
// exact tail and their z-score.
func TestNullCalibration(t *testing.T) {
	var scratch stats.NullScratch
	worst := 0.0
	for _, key := range calibrationKeys {
		atoms := exactLRTNull(key.n1, key.n2, key.k)
		store := stats.NewNullStore(0xCA11B, calibrationWorlds, 1)
		for _, alpha := range []float64{0.05, 0.2} {
			tau, tail, ok := criticalValue(atoms, alpha)
			if !ok {
				t.Fatalf("key %v: no critical value at alpha %v", key, alpha)
			}
			p, _, _ := store.PValue(key.n1, key.n2, key.k, tau, &scratch)
			geq := math.Round(p*(calibrationWorlds+1)) - 1
			m := float64(calibrationWorlds)
			z := (geq - m*tail) / math.Sqrt(m*tail*(1-tail))
			worst = math.Max(worst, math.Abs(z))
			t.Logf("key (%d,%d,%d) alpha %.2f: tau %.4f, Monte-Carlo tail %.5f, exact %.5f, z %+.2f",
				key.n1, key.n2, key.k, alpha, tau, geq/m, tail, z)
			if math.Abs(z) > calibrationZ {
				t.Errorf("key (%d,%d,%d) alpha %v: Monte-Carlo tail %.5f at the exact critical value %v, exact tail %.5f (z = %+.2f, band ±%d)",
					key.n1, key.n2, key.k, alpha, geq/m, tau, tail, z, calibrationZ)
			}
		}
	}
	t.Logf("largest |z| %.2f", worst)
}
