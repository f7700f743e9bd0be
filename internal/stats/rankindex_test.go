package stats

import (
	"math"
	"sort"
	"testing"
)

// rankTestSample draws a sorted sample whose tie density is controlled by
// quantize: 0 leaves continuous (almost surely distinct) values, larger
// values round onto a coarse lattice so within- and cross-sample ties abound.
func rankTestSample(rng *RNG, n int, quantize float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		v := rng.NormFloat64()*10 + rng.Float64()
		if quantize > 0 {
			v = math.Round(v/quantize) * quantize
		}
		xs[i] = v
	}
	sort.Float64s(xs)
	return xs
}

// crossCountRef is the brute-force oracle for CrossCount: twice the U
// statistic, 2#{x > y} + #{x = y}, and the pooled tie term Σ(t³−t) over the
// union's runs of equal values.
func crossCountRef(xs, ys []float64) (twoU, ties int64) {
	for _, x := range xs {
		for _, y := range ys {
			if x > y {
				twoU += 2
			} else if x == y {
				twoU++
			}
		}
	}
	counts := map[float64]int64{}
	for _, v := range append(append([]float64(nil), xs...), ys...) {
		counts[v]++
	}
	for _, t := range counts {
		ties += t*t*t - t
	}
	return twoU, ties
}

func TestOrderedKeyPreservesOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -3.5, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0.5, 1, 2.75, 1e300, math.Inf(1)}
	for i, a := range vals {
		for j, b := range vals {
			ka, kb := OrderedKey(a), OrderedKey(b)
			switch {
			case a < b && !(ka < kb):
				t.Fatalf("OrderedKey(%v) >= OrderedKey(%v) but %v < %v", a, b, a, b)
			case a == b && ka != kb:
				t.Fatalf("OrderedKey(%v) != OrderedKey(%v) for equal values (i=%d j=%d)", a, b, i, j)
			case a > b && !(ka > kb):
				t.Fatalf("OrderedKey(%v) <= OrderedKey(%v) but %v > %v", a, b, a, b)
			}
			if ka == ^uint64(0) {
				t.Fatalf("OrderedKey(%v) collides with the sentinel key", a)
			}
		}
	}
}

func TestNewRankGridDegenerate(t *testing.T) {
	cases := []struct{ lo, hi float64 }{
		{1, 1}, {2, 1}, {math.NaN(), 1}, {0, math.NaN()},
		{math.Inf(-1), 0}, {0, math.Inf(1)}, {-math.MaxFloat64, math.MaxFloat64},
	}
	for _, c := range cases {
		if _, ok := NewRankGrid(c.lo, c.hi, RankGridBuckets); ok {
			// The full-float span makes the scale underflow to zero; the rest
			// are non-finite or empty spans. All must be rejected.
			if !(math.IsInf(c.lo, 0) || math.IsInf(c.hi, 0)) && c.lo == -math.MaxFloat64 {
				continue
			}
			t.Fatalf("NewRankGrid(%v, %v) unexpectedly ok", c.lo, c.hi)
		}
	}
	if _, ok := NewRankGrid(0, 1, RankGridBuckets); !ok {
		t.Fatal("NewRankGrid(0, 1) should be ok")
	}
}

// TestRankGridBucketClampsLargeValues pins Bucket's clamp for values far
// outside the grid's span: a product (v-Lo)*Scale beyond the int range must
// still land in the edge bucket, so the map stays monotone over every float.
func TestRankGridBucketClampsLargeValues(t *testing.T) {
	g, ok := NewRankGrid(12000, 500000, RankGridBuckets)
	if !ok {
		t.Fatal("grid refused")
	}
	last := g.Buckets - 1
	for _, c := range []struct {
		v    float64
		want int
	}{
		{1e22, last}, {1e25, last}, {math.MaxFloat64, last}, {math.Inf(1), last},
		{500000, last}, {-1e22, 0}, {-math.MaxFloat64, 0}, {math.Inf(-1), 0},
		{12000, 0}, {math.NaN(), 0},
	} {
		if got := g.Bucket(c.v); got != c.want {
			t.Errorf("Bucket(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	prev := 0
	for _, v := range []float64{-1e300, -1e22, 0, 12000, 12001, 250000, 499999, 500000, 9e18, 1e22, 1e300} {
		b := g.Bucket(v)
		if b < prev {
			t.Fatalf("Bucket(%g) = %d below the previous value's bucket %d", v, b, prev)
		}
		prev = b
	}
}

// TestFillRankedSampleTies pins the per-sample tie structure the brackets
// consume: Ties is Σ(t³−t) over runs of equal values and MaxRun the longest
// run, with -0.0 and +0.0 one value.
func TestFillRankedSampleTies(t *testing.T) {
	grid, _ := NewRankGrid(-10, 10, 64)
	for _, c := range []struct {
		xs     []float64
		ties   int64
		maxRun int
	}{
		{nil, 0, 0},
		{[]float64{1}, 0, 1},
		{[]float64{1, 2, 3}, 0, 1},
		{[]float64{1, 1, 2, 3, 3, 3}, 6 + 24, 3},
		{[]float64{math.Copysign(0, -1), 0, 0, 4}, 24, 3},
	} {
		var rs RankedSample
		FillRankedSample(grid, c.xs, &rs)
		if rs.Ties != c.ties || rs.MaxRun != c.maxRun {
			t.Errorf("%v: Ties=%d MaxRun=%d, want %d and %d", c.xs, rs.Ties, rs.MaxRun, c.ties, c.maxRun)
		}
	}
}

// TestCrossCountMatchesBruteForce drives the exact bucket kernel against the
// brute-force 2U and pooled tie term over a spread of sizes, tie densities,
// and grids — including grids narrower than the data so clamping is
// exercised.
func TestCrossCountMatchesBruteForce(t *testing.T) {
	rng := NewRNG(0xC20551)
	for trial := 0; trial < 400; trial++ {
		quantize := 0.0
		switch trial % 4 {
		case 1:
			quantize = 2
		case 2:
			quantize = 8
		case 3:
			quantize = 0.25
		}
		n1 := rng.Intn(60)
		n2 := rng.Intn(60)
		xs := rankTestSample(rng, n1, quantize)
		ys := rankTestSample(rng, n2, quantize)

		lo, hi := -40.0, 40.0
		if trial%5 == 0 {
			lo, hi = -5, 5 // force edge-bucket clamping
		}
		grid, ok := NewRankGrid(lo, hi, 64)
		if !ok {
			t.Fatal("grid construction failed")
		}
		var ra, rb RankedSample
		FillRankedSample(grid, xs, &ra)
		FillRankedSample(grid, ys, &rb)

		wantTwoU, wantTies := crossCountRef(xs, ys)
		if n1 == 0 || n2 == 0 {
			wantTwoU = 0
		}
		if twoU, ties := CrossCount(&ra, &rb); twoU != wantTwoU || ties != wantTies {
			t.Fatalf("trial %d: CrossCount = (%d, %d), want (%d, %d) (n1=%d n2=%d)",
				trial, twoU, ties, wantTwoU, wantTies, n1, n2)
		}
	}
}

// TestMannWhitneyFromCrossBitMatches asserts the bucket-kernel path produces
// bit-identical results to the general tie-aware merge, on tie-free and
// tie-heavy pairs alike.
func TestMannWhitneyFromCrossBitMatches(t *testing.T) {
	rng := NewRNG(0xC20552)
	for trial := 0; trial < 300; trial++ {
		quantize := []float64{0, 0.25, 2, 8}[trial%4]
		n1 := 1 + rng.Intn(80)
		n2 := 1 + rng.Intn(80)
		xs := rankTestSample(rng, n1, quantize)
		ys := rankTestSample(rng, n2, quantize)
		grid, _ := NewRankGrid(-45, 45, RankGridBuckets)
		var ra, rb RankedSample
		FillRankedSample(grid, xs, &ra)
		FillRankedSample(grid, ys, &rb)
		twoU, ties := CrossCount(&ra, &rb)
		got, ok := MannWhitneyFromCross(twoU, ties, n1, n2)
		if !ok {
			t.Fatalf("trial %d: small sums reported inexact", trial)
		}
		if want := MannWhitneyUSorted(xs, ys); got != want {
			t.Fatalf("trial %d: MannWhitneyFromCross=%+v want %+v", trial, got, want)
		}
	}
	// Past 2^53 the finish refuses rather than round.
	if _, ok := MannWhitneyFromCross(0, 1<<53, 10, 10); ok {
		t.Fatal("tie term at 2^53 accepted")
	}
}

// TestRankKernelsZeroAlloc pins the steady-state pair kernels at zero
// allocations per call, in agreement with their //lint:hotpath annotations.
func TestRankKernelsZeroAlloc(t *testing.T) {
	rng := NewRNG(0xC20554)
	xs := rankTestSample(rng, 200, 0.25)
	ys := rankTestSample(rng, 150, 0.25)
	grid, _ := NewRankGrid(-45, 45, RankGridBuckets)
	var ra, rb RankedSample
	FillRankedSample(grid, xs, &ra)
	FillRankedSample(grid, ys, &rb)

	if n := testing.AllocsPerRun(100, func() {
		twoU, ties := CrossCount(&ra, &rb)
		if _, ok := MannWhitneyFromCross(twoU, ties, ra.N, rb.N); !ok {
			t.Fatal("small sums reported inexact")
		}
		lo, hi := CrossBoundsCoarse(&ra, &rb)
		_, _, _ = MannWhitneyAbsZRange(lo, hi, &ra, &rb)
		lo, hi = CrossBounds(&ra, &rb)
		_, _, _ = MannWhitneyAbsZRange(lo, hi, &ra, &rb)
	}); n != 0 {
		t.Fatalf("bucket kernels allocate %.1f per run, want 0", n)
	}
	xd := rankTestSample(rng, 200, 0)
	yd := rankTestSample(rng, 150, 0)
	if n := testing.AllocsPerRun(100, func() {
		if res := KolmogorovSmirnovSorted(xd, yd); math.IsNaN(res.P) {
			t.Fatal("non-empty samples gave a NaN p-value")
		}
	}); n != 0 {
		t.Fatalf("Kolmogorov–Smirnov merge kernel allocates %.1f per run, want 0", n)
	}
}

// TestFillRankedSampleReusesBuffers verifies arena-backed refills don't grow
// or replace caller-provided slices.
func TestFillRankedSampleReusesBuffers(t *testing.T) {
	rng := NewRNG(0xC20555)
	grid, _ := NewRankGrid(-45, 45, 64)
	rs := RankedSample{
		Keys: make([]uint64, 34),
		Buk:  make([]int32, 32),
		Pre:  make([]int32, 65),
	}
	keysPtr := &rs.Keys[0]
	sample := rankTestSample(rng, 32, 0)
	if n := testing.AllocsPerRun(50, func() {
		FillRankedSample(grid, sample, &rs)
	}); n != 0 {
		t.Fatalf("FillRankedSample allocates %.1f per run with adequate buffers, want 0", n)
	}
	if &rs.Keys[0] != keysPtr {
		t.Fatal("FillRankedSample replaced an adequately-sized Keys buffer")
	}
}
