package verify

import (
	"math"
	"testing"
	"testing/quick"

	"lcsf/internal/stats"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.9995, 3.290526731491926},
		{0.0005, -3.290526731491926},
		{0.84134474606854293, 1},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-7 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("endpoints should be infinite")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("out-of-range p should be NaN")
	}
}

// Property: NormalQuantile inverts NormalCDF across the usable range.
func TestNormalQuantileInvertsCDF(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p < 1e-10 || p > 1-1e-10 {
			return true
		}
		z := NormalQuantile(p)
		return math.Abs(stats.NormalCDF(z)-p) <= 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNormFloat64MatchesReference pins stats.RNG.NormFloat64 to
// refNormFloat64, the polar Box–Muller transcription: every variate must be
// bit-identical and leave the generator in the same state. Synthetic data
// (lcsf-datagen, the census and HMDA generators, every benchmark input)
// draws its incomes and jitter from this stream.
func TestNormFloat64MatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		got, want := stats.NewRNG(seed), stats.NewRNG(seed)
		for i := 0; i < 500; i++ {
			g, w := got.NormFloat64(), refNormFloat64(want)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, reference %v", seed, i, g, w)
			}
			if *got != *want {
				t.Fatalf("seed %d draw %d: NormFloat64 left the generator at a different state", seed, i)
			}
		}
	}
}
