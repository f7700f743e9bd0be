package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(8)
	same := 0
	a.Seed(7)
	for i := 0; i < 1000; i++ {
		if a.Uint32() == c.Uint32() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d/1000 equal draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGFloat64MeanVariance(t *testing.T) {
	r := NewRNG(2)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if m := Mean(xs); math.Abs(m-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", m)
	}
	if v := Variance(xs); math.Abs(v-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~0.0833", v)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn bucket %d count %d, want ~10000", i, c)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(4)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", m)
	}
	if v := Variance(xs); math.Abs(v-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", v)
	}
}

func TestRNGBinomialEdgeCases(t *testing.T) {
	r := NewRNG(5)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
	if got := r.Binomial(-5, 0.5); got != 0 {
		t.Errorf("Binomial(-5, .5) = %d", got)
	}
}

func TestRNGBinomialMoments(t *testing.T) {
	r := NewRNG(6)
	// Exercise both the exact (small n) and approximate (large n) paths.
	for _, tc := range []struct {
		n int
		p float64
	}{{20, 0.3}, {50, 0.62}, {5000, 0.62}, {100000, 0.1}, {3000, 0.9}} {
		draws := 3000
		xs := make([]float64, draws)
		for i := range xs {
			k := r.Binomial(tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", tc.n, tc.p, k)
			}
			xs[i] = float64(k)
		}
		wantMean := float64(tc.n) * tc.p
		wantSD := math.Sqrt(wantMean * (1 - tc.p))
		m := Mean(xs)
		if math.Abs(m-wantMean) > 5*wantSD/math.Sqrt(float64(draws)) {
			t.Errorf("Binomial(%d,%v) mean = %v, want ~%v", tc.n, tc.p, m, wantMean)
		}
		sd := math.Sqrt(Variance(xs))
		if math.Abs(sd-wantSD) > 0.1*wantSD+0.5 {
			t.Errorf("Binomial(%d,%v) sd = %v, want ~%v", tc.n, tc.p, sd, wantSD)
		}
	}
}

func TestRNGShufflePermutes(t *testing.T) {
	r := NewRNG(7)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}

func TestRNGSplitIndependentAndDeterministic(t *testing.T) {
	// Same parent seed and split order must reproduce the same child streams.
	a, b := NewRNG(42), NewRNG(42)
	ca1, ca2 := a.Split(), a.Split()
	cb1, cb2 := b.Split(), b.Split()
	for i := 0; i < 100; i++ {
		if ca1.Uint64() != cb1.Uint64() || ca2.Uint64() != cb2.Uint64() {
			t.Fatal("Split is not deterministic in (seed, split order)")
		}
	}

	// Sibling streams and the advanced parent must not mirror one another.
	parent := NewRNG(42)
	c1, c2 := parent.Split(), parent.Split()
	same12, sameP1 := 0, 0
	for i := 0; i < 1000; i++ {
		v1, v2, vp := c1.Uint32(), c2.Uint32(), parent.Uint32()
		if v1 == v2 {
			same12++
		}
		if v1 == vp {
			sameP1++
		}
	}
	if same12 > 2 || sameP1 > 2 {
		t.Errorf("split streams correlate: %d/%d collisions", same12, sameP1)
	}
}

// TestBinomialBracketPaths drives the normal path's bracket over a long
// stream of polar pairs and checks every bracketed answer against the exact
// expression, and that both ways a bracket declines — straddling a rounding
// boundary, and s in the first bucket where the polar factor is unbounded —
// actually occur, so the exact fallback is exercised rather than assumed.
func TestBinomialBracketPaths(t *testing.T) {
	b := newBinomialSampler(4000, 0.3) // mean 1200, sd 29
	if b.path != binomialNormal {
		t.Fatalf("sampler path %d, want the normal path", b.path)
	}
	r := NewRNG(11)
	var bracketed, straddled, belowTable int
	for pairs := 0; pairs < 200000; {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if !(s > 0 && s < 1) {
			continue
		}
		pairs++
		k, ok := b.roundBracket(u, s)
		switch {
		case ok:
			bracketed++
			if exact := int(math.Round(b.mean + b.sd*(u*math.Sqrt(-2*math.Log(s)/s)))); k != exact {
				t.Fatalf("u=%v s=%v: bracket rounds to %d, exact expression to %d", u, s, k, exact)
			}
		case int(s*polarBuckets) == 0:
			belowTable++
		default:
			straddled++
		}
	}
	if straddled == 0 || belowTable == 0 {
		t.Fatalf("fallbacks: %d straddling, %d below the table; want both > 0", straddled, belowTable)
	}
	if bracketed < 180000 {
		t.Errorf("only %d of 200000 draws bracketed", bracketed)
	}
	t.Logf("bracketed %d, straddled %d, below table %d", bracketed, straddled, belowTable)
}
