package stats

import (
	"math"
	"sort"
	"testing"
)

// TestFillPairNullMatchesCacheEntry asserts a batched fill reproduces, byte
// for byte, the p-values a store produces for the same (seed, worlds, key) —
// and that both agree with the uncached reference oracle.
func TestFillPairNullMatchesCacheEntry(t *testing.T) {
	const seed, worlds = 0xF111ED, 257
	store := NewNullStore(seed, worlds)
	var scratch []float64
	buf := make([]float64, worlds)
	cases := []struct{ n1, n2, pos int }{
		{120, 340, 55}, {340, 120, 55}, {1, 1, 0}, {200, 200, 400}, {77, 1000, 300},
	}
	for _, c := range cases {
		FillPairNull(buf, seed, c.n1, c.n2, c.pos)
		if !sort.Float64sAreSorted(buf) {
			t.Fatalf("FillPairNull(%d,%d,%d) not sorted", c.n1, c.n2, c.pos)
		}
		for _, observed := range []float64{0, 0.5, 2, 10, buf[0], buf[worlds-1], buf[worlds/2]} {
			idx := sort.SearchFloat64s(buf, observed)
			want := float64(1+worlds-idx) / float64(worlds+1)
			got, _ := store.PValue(c.n1, c.n2, c.pos, observed, &scratch)
			if got != want {
				t.Fatalf("key (%d,%d,%d) obs %v: store p=%v, FillPairNull p=%v", c.n1, c.n2, c.pos, observed, got, want)
			}
			if ref := NullCacheReferenceP(seed, worlds, c.n1, c.n2, c.pos, observed); got != ref {
				t.Fatalf("key (%d,%d,%d) obs %v: store p=%v, reference p=%v", c.n1, c.n2, c.pos, observed, got, ref)
			}
		}
	}
}

// TestFillPairNullZeroAlloc pins the batched fill path at zero allocations:
// past the store's bound, fills reuse the caller's scratch memory. The keys
// span a fill whose tables cover every count and one above the old
// 2048-individual table bound, whose tables are windows.
func TestFillPairNullZeroAlloc(t *testing.T) {
	buf := make([]float64, 999)
	for _, k := range []struct{ n1, n2, pos int }{{150, 220, 91}, {1500, 1400, 900}} {
		if n := testing.AllocsPerRun(20, func() {
			FillPairNull(buf, 0xA110C, k.n1, k.n2, k.pos)
		}); n != 0 {
			t.Fatalf("FillPairNull(%d,%d,%d) allocates %.1f per run, want 0", k.n1, k.n2, k.pos, n)
		}
	}
}

// TestFillPairNullMatchesDirectDraws asserts the tabled kernel reproduces
// pairNullDraw world by world, bit for bit and in stream order, for keys
// whose tables cover every count, keys whose windows sit away from zero
// (pooled rates near 0, 0.5 and 1 on large regions), and a key so large that
// draws fall outside the windows and take the direct expression.
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
		fillPairNull(buf, seed, key)
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
		if (outside > 0) != c.wantOutWindow {
			t.Errorf("key (%d,%d,%d): %d pooled counts outside the table window, want some: %v",
				c.n1, c.n2, c.pos, outside, c.wantOutWindow)
		}
	}
}
