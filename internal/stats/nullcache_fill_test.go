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
	fillNull(buf, &rng, key, 0, math.MaxInt)
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
				var scratch []float64
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

// TestFillPairNullZeroAlloc pins the fill at zero allocations, stopped early
// and run to the end alike: past the store's bound, fills reuse the caller's
// scratch memory. The keys span a fill whose tables cover every count and
// one above the old 2048-individual table bound, whose tables are windows.
func TestFillPairNullZeroAlloc(t *testing.T) {
	buf := make([]float64, 999)
	for _, k := range []pairNullKey{{150, 220, 91}, {1400, 1500, 900}} {
		for _, stop := range []int{5, math.MaxInt} {
			if n := testing.AllocsPerRun(20, func() {
				var rng RNG
				rng.Seed(nullCacheSeed(0xA110C, k))
				fillNull(buf, &rng, k, 0.5, stop)
			}); n != 0 {
				t.Fatalf("fillNull(%v, stop %d) allocates %.1f per run, want 0", k, stop, n)
			}
		}
	}
}

// TestFillPairNullMatchesDirectDraws asserts the tabled fill reproduces
// pairNullDraw world by world, bit for bit and in stream order — including a
// fill stopped early and resumed from its stream position — for keys whose
// tables cover every count, keys whose windows sit away from zero (pooled
// rates near 0, 0.5 and 1 on large regions), and a key so large that draws
// fall outside the windows and take the direct expression.
func TestFillPairNullMatchesDirectDraws(t *testing.T) {
	const seed, worlds = 0xD12EC7, 301
	buf := make([]float64, worlds)
	for _, c := range []struct {
		n1, n2, pos   int
		wantOutWindow bool
	}{
		{40, 25, 12, false},
		{1000, 1048, 1024, false},
		{3000, 5000, 40, false},
		{3000, 5000, 4000, false},
		{3000, 5000, 7990, false},
		{1 << 20, 1 << 20, 1 << 20, true},
	} {
		key := newPairNullKey(c.n1, c.n2, c.pos)
		var fill RNG
		fill.Seed(nullCacheSeed(seed, key))
		// Stop after the 7th world at or above -Inf, which every world is,
		// then resume to the end on the same stream.
		head, geq := fillNull(buf, &fill, key, math.Inf(-1), 7)
		if head != 7 || geq != 7 {
			t.Fatalf("key %v: stopped fill drew %d worlds with %d exceedances, want 7 and 7", key, head, geq)
		}
		if tail, _ := fillNull(buf[head:], &fill, key, 0, math.MaxInt); head+tail != worlds {
			t.Fatalf("key %v: resumed fill drew %d+%d worlds, want %d", key, head, tail, worlds)
		}
		rate := float64(key.pooledPositives) / float64(key.n1+key.n2)
		rng := NewRNG(nullCacheSeed(seed, key))
		los := nullTableLo(key.n1+key.n2, rate)
		outside := 0
		for i, got := range buf {
			state := *rng
			want := pairNullDraw(rng, key.n1, key.n2, rate)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("key (%d,%d,%d) world %d: tabled %v, direct %v", c.n1, c.n2, c.pos, i, got, want)
			}
			k1 := state.Binomial(key.n1, rate)
			if s := k1 + state.Binomial(key.n2, rate); s < los || s >= los+nullTableSize {
				outside++
			}
		}
		if fill != *rng {
			t.Errorf("key %v: resumed fill left the stream at a different position than the direct draws", key)
		}
		if (outside > 0) != c.wantOutWindow {
			t.Errorf("key (%d,%d,%d): %d pooled counts outside the table window, want some: %v",
				c.n1, c.n2, c.pos, outside, c.wantOutWindow)
		}
	}
}
