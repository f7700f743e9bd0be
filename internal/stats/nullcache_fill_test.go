package stats

import (
	"math"
	"sort"
	"testing"
)

// onePassNull returns the key's null sample drawn by one uninterrupted
// fillNull that keeps every world, sorted ascending.
func onePassNull(seed uint64, worlds int, key pairNullKey) []float64 {
	top := nullTop{h: make([]float64, 0, worlds)}
	var rng RNG
	rng.Seed(nullCacheSeed(seed, key))
	fillNull(worlds, &rng, key, 0, math.MaxInt, &top, &NullScratch{})
	sort.Float64s(top.h)
	return top.h
}

// checkEntrySizes fails unless every entry of s keeps at most min(stop, m)
// statistics, and, when every key has completed, exactly that many.
func checkEntrySizes(t *testing.T, s *NullStore, completed bool) {
	t.Helper()
	k := min(s.stop, s.worlds)
	for i := range s.slots {
		e := s.slots[i].Load()
		if e == nil {
			continue
		}
		if n := len(e.top.h); n > k || cap(e.top.h) > k || (completed && n != k) {
			t.Fatalf("entry %v keeps %d statistics (capacity %d), want min(stop %d, m %d) = %d", e.key, n, cap(e.top.h), s.stop, s.worlds, k)
		}
	}
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
	top := nullTop{h: make([]float64, 0, 999)}
	var sc NullScratch
	for _, k := range []pairNullKey{{150, 220, 91}, {1400, 1500, 900}, {190, 190, 323}, {200, 1000, 12}} {
		for _, stop := range []int{5, math.MaxInt} {
			if n := testing.AllocsPerRun(20, func() {
				var rng RNG
				rng.Seed(nullCacheSeed(0xA110C, k))
				top.h = top.h[:0]
				fillNull(999, &rng, k, 0.5, stop, &top, &sc)
			}); n != 0 {
				t.Fatalf("fillNull(%v, stop %d) allocates %.1f per run, want 0", k, stop, n)
			}
		}
	}
}

// TestFillPairNullMatchesDirectDraws asserts the tabled fill reproduces
// PairNullSimulator's worlds bit for bit — including a fill stopped early
// and resumed from its stream position, with the scratch rebuilt in between
// by a fill of another key — for small keys, windows away from zero (pooled
// rates near 0, 0.5 and 1 on large regions), a key of a million individuals
// per region, and degenerate pooled counts. The statistics the fill keeps
// must be the top k of the direct draws, sorted, for k of every world, of a
// few, and of none, and its exceedance counts must be the direct draws'.
func TestFillPairNullMatchesDirectDraws(t *testing.T) {
	const seed, worlds = 0xD12EC7, 301
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
		rate := float64(key.pooledPositives) / float64(key.n1+key.n2)
		direct := NewRNG(nullCacheSeed(seed, key))
		sim := PairNullSimulator(direct, key.n1, key.n2, rate)
		draws := make([]float64, worlds)
		for i := range draws {
			draws[i] = sim()
		}
		observed := draws[worlds/3]
		want := 0
		for _, v := range draws {
			if v >= observed {
				want++
			}
		}
		sorted := append([]float64(nil), draws...)
		sort.Float64s(sorted)
		for _, k := range []int{worlds, 10, 1, 0} {
			top := nullTop{h: make([]float64, 0, k)}
			var fill RNG
			fill.Seed(nullCacheSeed(seed, key))
			// Stop after the 7th world at or above -Inf, which every world
			// is, then resume to the end on the same stream.
			head, geq := fillNull(worlds, &fill, key, math.Inf(-1), 7, &top, &sc)
			if head != 7 || geq != 7 {
				t.Fatalf("key %v: stopped fill drew %d worlds with %d exceedances, want 7 and 7", key, head, geq)
			}
			var rng RNG
			fillNull(50, &rng, pairNullKey{64, 65, 60}, 0, math.MaxInt, nil, &sc)
			tail, tailGeq := fillNull(worlds-head, &fill, key, observed, math.MaxInt, &top, &sc)
			if head+tail != worlds {
				t.Fatalf("key %v: resumed fill drew %d+%d worlds, want %d", key, head, tail, worlds)
			}
			headGeq := 0
			for _, v := range draws[:head] {
				if v >= observed {
					headGeq++
				}
			}
			if headGeq+tailGeq != want {
				t.Fatalf("key %v: resumed fill counted %d exceedances of %v, direct draws %d", key, headGeq+tailGeq, observed, want)
			}
			sort.Float64s(top.h)
			if len(top.h) != k {
				t.Fatalf("key %v: fill kept %d statistics, want %d", key, len(top.h), k)
			}
			for i, got := range top.h {
				if w := sorted[worlds-k+i]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("key (%d,%d,%d) top %d, kept statistic %d: %v, direct draws %v", c.n1, c.n2, c.pos, k, i, got, w)
				}
			}
			if fill != *direct {
				t.Errorf("key %v: resumed fill left the stream at a different position than the direct draws", key)
			}
		}
	}
}

// TestNullTopOrdersLikeSortFloat64s pushes sequences with NaN, ±Inf and
// heavy ties through the bounded heap at every capacity and asserts it keeps
// exactly the largest values in sort.Float64s' order (NaN least).
func TestNullTopOrdersLikeSortFloat64s(t *testing.T) {
	nan := math.NaN()
	rng := NewRNG(0x70B)
	for trial := 0; trial < 200; trial++ {
		vals := make([]float64, int(rng.Uint64()%40))
		for i := range vals {
			switch rng.Uint64() % 5 {
			case 0:
				vals[i] = nan
			case 1:
				vals[i] = math.Inf(int(rng.Uint64()%3) - 1)
			default:
				vals[i] = float64(rng.Uint64()%6) / 2 // ties
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for k := 0; k <= len(vals); k++ {
			top := nullTop{h: make([]float64, 0, k)}
			for _, v := range vals {
				if top.admits(v) {
					top.enter(v)
				}
			}
			sort.Float64s(top.h)
			want := sorted[len(vals)-k:]
			for i := range want {
				if math.Float64bits(top.h[i]) != math.Float64bits(want[i]) && !(math.IsNaN(top.h[i]) && math.IsNaN(want[i])) {
					t.Fatalf("trial %d k=%d: kept %v, want the top %v of %v", trial, k, top.h, want, vals)
				}
			}
		}
	}
}
