package stats

import (
	"math"
	"sort"
	"testing"
)

// onePassNull returns the key's null sample drawn by one uninterrupted
// fillNull, sorted ascending.
func onePassNull(seed uint64, worlds int, key pairNullKey) []float64 {
	buf := make([]float64, worlds)
	var rng RNG
	rng.Seed(nullCacheSeed(seed, key))
	fillNull(buf, &rng, key, 0, math.MaxInt, &NullScratch{})
	sort.Float64s(buf)
	return buf
}

// TestFillPairNullMatchesCacheEntry asserts a store's first and completing
// lookups reproduce, byte for byte, the p-values of one uninterrupted fill of
// the same (seed, worlds, key) — exact at or below the cut, the canonical
// above-cut value past it — and that both agree with the uncached reference
// oracle, at a cut that never stops and at one that does.
func TestFillPairNullMatchesCacheEntry(t *testing.T) {
	const seed, worlds = 0xF111ED, 257
	cases := []struct{ n1, n2, pos int }{
		{120, 340, 55}, {340, 120, 55}, {1, 1, 0}, {200, 200, 400}, {77, 1000, 300},
	}
	for _, cut := range []float64{1, 0.05} {
		stop := mcStopCount(worlds, cut)
		for _, c := range cases {
			buf := onePassNull(seed, worlds, newPairNullKey(c.n1, c.n2, c.pos))
			for _, observed := range []float64{0, 0.5, 2, 10, buf[0], buf[worlds-1], buf[worlds/2]} {
				geq := worlds - sort.SearchFloat64s(buf, observed)
				want := float64(1+min(geq, stop)) / float64(worlds+1)
				var scratch NullScratch
				store := NewNullStore(seed, worlds, cut)
				for _, lookup := range []string{"first", "completing", "later"} {
					got, _, _ := store.PValue(c.n1, c.n2, c.pos, observed, &scratch)
					if got != want {
						t.Fatalf("cut %v key (%d,%d,%d) obs %v: %s store p=%v, one-pass fill p=%v", cut, c.n1, c.n2, c.pos, observed, lookup, got, want)
					}
				}
				if ref := NullCacheReferenceP(seed, worlds, c.n1, c.n2, c.pos, observed, cut); ref != want {
					t.Fatalf("cut %v key (%d,%d,%d) obs %v: reference p=%v, one-pass fill p=%v", cut, c.n1, c.n2, c.pos, observed, ref, want)
				}
			}
		}
	}
}

// TestFillPairNullZeroAlloc pins the fill at zero allocations after warm-up,
// stopped early and run to the end alike: the samplers and log tables are
// rebuilt in the caller's scratch, which the first (warm-up) run grows. The
// keys span small and LAR-sized regions and skewed pooled rates.
func TestFillPairNullZeroAlloc(t *testing.T) {
	buf := make([]float64, 999)
	var sc NullScratch
	for _, k := range []pairNullKey{{150, 220, 91}, {1400, 1500, 900}, {190, 190, 323}, {200, 1000, 12}} {
		for _, stop := range []int{5, math.MaxInt} {
			if n := testing.AllocsPerRun(20, func() {
				var rng RNG
				rng.Seed(nullCacheSeed(0xA110C, k))
				fillNull(buf, &rng, k, 0.5, stop, &sc)
			}); n != 0 {
				t.Fatalf("fillNull(%v, stop %d) allocates %.1f per run, want 0", k, stop, n)
			}
		}
	}
}

// TestFillPairNullMatchesDirectDraws asserts the tabled fill reproduces
// PairNullSimulator world by world, bit for bit and in stream order —
// including a fill stopped early and resumed from its stream position, with
// the scratch rebuilt in between by a fill of another key — for small keys,
// windows away from zero (pooled rates near 0, 0.5 and 1 on large regions),
// a key of a million individuals per region, and degenerate pooled counts.
func TestFillPairNullMatchesDirectDraws(t *testing.T) {
	const seed, worlds = 0xD12EC7, 301
	buf := make([]float64, worlds)
	other := make([]float64, 50)
	var sc NullScratch
	for _, c := range []struct{ n1, n2, pos int }{
		{40, 25, 12},
		{1000, 1048, 1024},
		{3000, 5000, 40},
		{3000, 5000, 4000},
		{3000, 5000, 7990},
		{1 << 20, 1 << 20, 1 << 20},
		{300, 500, 0},
		{300, 500, 800},
	} {
		key := newPairNullKey(c.n1, c.n2, c.pos)
		var fill RNG
		fill.Seed(nullCacheSeed(seed, key))
		// Stop after the 7th world at or above -Inf, which every world is,
		// then resume to the end on the same stream.
		head, geq := fillNull(buf, &fill, key, math.Inf(-1), 7, &sc)
		if head != 7 || geq != 7 {
			t.Fatalf("key %v: stopped fill drew %d worlds with %d exceedances, want 7 and 7", key, head, geq)
		}
		var rng RNG
		fillNull(other, &rng, pairNullKey{64, 65, 60}, 0, math.MaxInt, &sc)
		if tail, _ := fillNull(buf[head:], &fill, key, 0, math.MaxInt, &sc); head+tail != worlds {
			t.Fatalf("key %v: resumed fill drew %d+%d worlds, want %d", key, head, tail, worlds)
		}
		rate := float64(key.pooledPositives) / float64(key.n1+key.n2)
		direct := NewRNG(nullCacheSeed(seed, key))
		sim := PairNullSimulator(direct, key.n1, key.n2, rate)
		for i, got := range buf {
			if want := sim(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("key (%d,%d,%d) world %d: tabled %v, direct %v", c.n1, c.n2, c.pos, i, got, want)
			}
		}
		if fill != *direct {
			t.Errorf("key %v: resumed fill left the stream at a different position than the direct draws", key)
		}
	}
}
