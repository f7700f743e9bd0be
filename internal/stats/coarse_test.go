package stats

import (
	"math"
	"sort"
	"testing"
)

// TestCrossBoundsCoarseContainsExact pins the coarse digest's soundness
// contract: for same-grid samples the group-resolution interval always
// contains the fine bucket-resolution interval, which contains the exact
// U — so a verdict decided from the coarse interval alone is always the
// exact verdict. Every fourth trial is tie-heavy.
func TestCrossBoundsCoarseContainsExact(t *testing.T) {
	rng := NewRNG(0xC0A25E)
	for trial := 0; trial < 300; trial++ {
		buckets := []int{1, 8, 64, 256, 2048}[trial%5]
		grid, ok := NewRankGrid(0, 1, buckets)
		if !ok {
			t.Fatal("grid refused")
		}
		n1, n2 := 1+int(rng.Uint64()%60), 1+int(rng.Uint64()%60)
		xs := distinctSorted(rng, n1)
		ys := distinctSorted(rng, n2)
		if trial%4 == 3 {
			xs, ys = quarterSorted(xs), quarterSorted(ys)
		}
		var a, b RankedSample
		FillRankedSample(grid, xs, &a)
		FillRankedSample(grid, ys, &b)

		pre := FillPrefixTable(grid, &a, nil)
		cLo, cHi := CrossBoundsCoarse(&a, &b)
		fLo, fHi := CrossBounds(pre, &a, &b)
		twoU, _ := CrossCount(pre, &a, &b)
		if !(cLo <= fLo && 2*int64(fLo) <= twoU && twoU <= 2*int64(fHi) && fHi <= cHi) {
			t.Fatalf("trial %d (buckets=%d): want coarse [%d,%d] ⊇ fine [%d,%d] ∋ exact U %g",
				trial, buckets, cLo, cHi, fLo, fHi, float64(twoU)/2)
		}
		if cLo < 0 || cHi > n1*n2 {
			t.Fatalf("trial %d: coarse bounds [%d,%d] outside [0,%d]", trial, cLo, cHi, n1*n2)
		}
		// When the grid has at most RankCoarseGroups buckets, every group is
		// exactly one bucket and the digest carries full fine information.
		if buckets <= RankCoarseGroups && (cLo != fLo || cHi != fHi) {
			t.Fatalf("trial %d: buckets=%d <= groups but coarse [%d,%d] != fine [%d,%d]",
				trial, buckets, cLo, cHi, fLo, fHi)
		}
	}
}

// TestCrossBoundsCoarseSeparated checks the interval collapses to the exact
// count when the samples occupy disjoint group ranges, and that empty
// samples return the empty product.
func TestCrossBoundsCoarseSeparated(t *testing.T) {
	grid, ok := NewRankGrid(0, 1, 2048)
	if !ok {
		t.Fatal("grid refused")
	}
	xs := []float64{0.80, 0.85, 0.90, 0.95}
	ys := []float64{0.05, 0.10, 0.15}
	var a, b RankedSample
	FillRankedSample(grid, xs, &a)
	FillRankedSample(grid, ys, &b)
	if lo, hi := CrossBoundsCoarse(&a, &b); lo != len(xs)*len(ys) || hi != lo {
		t.Fatalf("separated samples: coarse bounds [%d,%d], want exactly %d", lo, hi, len(xs)*len(ys))
	}
	if lo, hi := CrossBoundsCoarse(&b, &a); lo != 0 || hi != 0 {
		t.Fatalf("reversed separated samples: coarse bounds [%d,%d], want [0,0]", lo, hi)
	}
	var empty RankedSample
	FillRankedSample(grid, nil, &empty)
	if lo, hi := CrossBoundsCoarse(&a, &empty); lo != 0 || hi != 0 {
		t.Fatalf("empty partner: coarse bounds [%d,%d], want [0,0]", lo, hi)
	}
}

// TestCoarseGroupsClamp pins the digest sizing rule: RankCoarseGroups for
// big grids, the bucket count itself when the grid is already smaller.
func TestCoarseGroupsClamp(t *testing.T) {
	if got := CoarseGroups(2048); got != RankCoarseGroups {
		t.Fatalf("CoarseGroups(2048) = %d, want %d", got, RankCoarseGroups)
	}
	if got := CoarseGroups(7); got != 7 {
		t.Fatalf("CoarseGroups(7) = %d, want 7", got)
	}
}

// TestMannWhitneyFromCrossDegenerate pins the empty-sample contract: NaN
// everywhere, matching MannWhitneyUSorted's treatment of empty samples.
func TestMannWhitneyFromCrossDegenerate(t *testing.T) {
	for _, tc := range []struct{ n1, n2 int }{{0, 5}, {5, 0}, {0, 0}} {
		r, ok := MannWhitneyFromCross(0, 0, tc.n1, tc.n2)
		if !ok || !math.IsNaN(r.U) || !math.IsNaN(r.Z) || !math.IsNaN(r.P) {
			t.Fatalf("MannWhitneyFromCross(0, 0, %d, %d) = %+v, %v; want all NaN", tc.n1, tc.n2, r, ok)
		}
	}
}

// TestRNGBernoulli sanity-checks the Bernoulli helper's edge probabilities
// and that an intermediate p produces both outcomes deterministically for a
// fixed seed.
func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 32; i++ {
		if r.Bernoulli(1.1) != true {
			t.Fatal("Bernoulli(p>1) must always be true")
		}
		if r.Bernoulli(0) != false {
			t.Fatal("Bernoulli(0) must always be false")
		}
	}
	trues := 0
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0.5) {
			trues++
		}
	}
	if trues == 0 || trues == 1000 {
		t.Fatalf("Bernoulli(0.5): %d/1000 true — degenerate stream", trues)
	}
}

// TestCrossBounds checks on random samples, distinct and tie-heavy, that the
// bound interval contains the exact U, on healthy and degenerate
// (single-bucket) grids alike.
func TestCrossBounds(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		buckets := []int{1, 8, 256, 2048}[trial%4]
		grid, ok := NewRankGrid(0, 1, buckets)
		if !ok {
			t.Fatal("grid refused")
		}
		n1, n2 := 1+int(rng.Uint64()%50), 1+int(rng.Uint64()%50)
		xs := distinctSorted(rng, n1)
		ys := distinctSorted(rng, n2)
		if trial%2 == 1 {
			xs, ys = quarterSorted(xs), quarterSorted(ys)
		}
		var a, b RankedSample
		FillRankedSample(grid, xs, &a)
		FillRankedSample(grid, ys, &b)
		pre := FillPrefixTable(grid, &a, nil)
		lo, hi := CrossBounds(pre, &a, &b)
		if twoU, _ := CrossCount(pre, &a, &b); twoU < 2*int64(lo) || twoU > 2*int64(hi) {
			t.Fatalf("trial %d: U %g outside bounds [%d,%d]", trial, float64(twoU)/2, lo, hi)
		}
		if lo < 0 || hi > n1*n2 {
			t.Fatalf("trial %d: bounds [%d,%d] outside [0,%d]", trial, lo, hi, n1*n2)
		}
	}
}

// quarterSorted rounds a sorted sample in [0, 1) onto a grid of quarters,
// keeping it sorted: ties within and across samples abound.
func quarterSorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = math.Floor(v*4) / 4
	}
	return out
}

// distinctSorted draws n distinct uniform values in ascending order.
func distinctSorted(rng *RNG, n int) []float64 {
	seen := map[float64]bool{}
	out := make([]float64, 0, n)
	for len(out) < n {
		v := rng.Float64()
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}
