package stats

import (
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
// past the store's bound, fills reuse the caller's scratch memory.
func TestFillPairNullZeroAlloc(t *testing.T) {
	buf := make([]float64, 999)
	if n := testing.AllocsPerRun(20, func() {
		FillPairNull(buf, 0xA110C, 150, 220, 91)
	}); n != 0 {
		t.Fatalf("FillPairNull allocates %.1f per run, want 0", n)
	}
}
