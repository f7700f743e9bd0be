package stats

import (
	"math"
	"testing"
)

// ge reports TwoSidedP(z) >= alpha through the gate's verified band,
// evaluating TwoSidedP only inside it: the point form of DecideRange, which
// lets the test probe the band itself.
func (g TwoSidedPGEGate) ge(z float64) bool {
	az := math.Abs(z)
	if az <= g.passLo {
		return true
	}
	if az >= g.failHi {
		return false
	}
	return TwoSidedP(az) >= g.alpha
}

// TestTwoSidedPGEGate checks the gate's band against direct evaluation for every
// decision it can make, including adversarial alphas that ARE reachable
// p-values (boundary equality matters: the gate answers >=, not >).
func TestTwoSidedPGEGate(t *testing.T) {
	rng := NewRNG(31)
	alphas := []float64{0, 1e-300, 1e-12, 1e-3, 0.001, 0.01, 0.05, 0.157, 0.5, 1, math.Nextafter(1, 2), 2}
	for i := 0; i < 16; i++ {
		alphas = append(alphas, TwoSidedP(6*rng.Float64()))
	}
	for _, alpha := range alphas {
		g := NewTwoSidedPGEGate(alpha)
		zs := []float64{0, 1e-300, 0.5, 1, 1.96, 2.5758, 3, 5, 8, 12, 30, 40, 1e6, math.MaxFloat64, math.Inf(1)}
		for i := 0; i < 200; i++ {
			zs = append(zs, 8*rng.Float64())
		}
		// Dense ULP sweep around the gate's own band.
		for _, base := range []float64{g.passLo, g.failHi} {
			if base <= 0 || math.IsInf(base, 0) {
				continue
			}
			z := base
			for k := 0; k < 50; k++ {
				zs = append(zs, z)
				z = math.Nextafter(z, math.Inf(1))
			}
			z = base
			for k := 0; k < 50; k++ {
				zs = append(zs, z)
				z = math.Nextafter(z, 0)
			}
		}
		for _, z := range zs {
			want := TwoSidedP(z) >= alpha
			if got := g.ge(z); got != want {
				t.Fatalf("alpha=%g: ge(%g) = %v, want %v", alpha, z, got, want)
			}
			if got := g.ge(-z); got != want {
				t.Fatalf("alpha=%g: ge(%g) = %v, want %v (sign symmetry)", alpha, -z, got, want)
			}
		}
		if g.ge(math.NaN()) {
			t.Fatalf("alpha=%g: NaN z passed", alpha)
		}
	}
}

// TestTwoSidedPGEGateDecideRange checks that a decided interval agrees with
// direct evaluation at its endpoints and sampled interior points.
func TestTwoSidedPGEGateDecideRange(t *testing.T) {
	rng := NewRNG(37)
	for _, alpha := range []float64{1e-6, 0.001, 0.05, 0.5, 1} {
		g := NewTwoSidedPGEGate(alpha)
		for trial := 0; trial < 2000; trial++ {
			a, b := 8*rng.Float64(), 8*rng.Float64()
			if a > b {
				a, b = b, a
			}
			pass, decided := g.DecideRange(a, b)
			if !decided {
				continue
			}
			for _, z := range []float64{a, b, a + (b-a)*0.25, a + (b-a)*0.75} {
				if want := TwoSidedP(z) >= alpha; want != pass {
					t.Fatalf("alpha=%g: DecideRange(%g,%g)=%v but exact at z=%g is %v", alpha, a, b, pass, z, want)
				}
			}
		}
		// An undecidable NaN endpoint must never decide.
		if _, decided := g.DecideRange(math.NaN(), math.NaN()); decided {
			t.Fatalf("alpha=%g: NaN interval decided", alpha)
		}
	}
}

// TestMannWhitneyAbsZRangeContainsExact pins the bracket-to-|z| map's
// soundness on tie-free and tie-heavy samples: whenever it certifies an
// interval, from the coarse or the fine bracket, the |Z| MannWhitneyUSorted
// computes lies inside it.
func TestMannWhitneyAbsZRangeContainsExact(t *testing.T) {
	rng := NewRNG(0xAB52)
	certified := 0
	for trial := 0; trial < 600; trial++ {
		quantize := []float64{0, 0.25, 2, 8}[trial%4]
		n1, n2 := 1+rng.Intn(70), 1+rng.Intn(70)
		xs := rankTestSample(rng, n1, quantize)
		ys := rankTestSample(rng, n2, quantize)
		if trial%3 == 0 {
			for i := range ys {
				ys[i] += 6 // shift one side so some brackets land far from the mean
			}
		}
		grid, _ := NewRankGrid(-45, 51, []int{64, RankGridBuckets}[trial%2])
		var a, b RankedSample
		FillRankedSample(grid, xs, &a)
		FillRankedSample(grid, ys, &b)
		az := math.Abs(MannWhitneyUSorted(xs, ys).Z)
		for _, br := range [][2]int{pair(CrossBoundsCoarse(&a, &b)), pair(CrossBounds(FillPrefixTable(grid, &a, nil), &a, &b))} {
			azMin, azMax, ok := MannWhitneyAbsZRange(br[0], br[1], &a, &b)
			if !ok {
				continue
			}
			certified++
			if !(azMin <= az && az <= azMax) {
				t.Fatalf("trial %d: |Z| = %v outside [%v, %v] from bracket %v", trial, az, azMin, azMax, br)
			}
		}
	}
	if certified < 1000 {
		t.Fatalf("only %d intervals certified; the check proves little", certified)
	}

	// Uncertifiable inputs: an empty sample, and an all-tied pair whose
	// corner variance is zero (the exact test is degenerate there).
	grid, _ := NewRankGrid(0, 10, 64)
	var a, b, empty RankedSample
	FillRankedSample(grid, []float64{1, 1}, &a)
	FillRankedSample(grid, []float64{1}, &b)
	FillRankedSample(grid, nil, &empty)
	if _, _, ok := MannWhitneyAbsZRange(0, 0, &a, &empty); ok {
		t.Fatal("empty sample certified")
	}
	lo, hi := CrossBounds(FillPrefixTable(grid, &a, nil), &a, &b)
	if _, _, ok := MannWhitneyAbsZRange(lo, hi, &a, &b); ok {
		t.Fatal("all-tied pair certified")
	}
}

func pair(lo, hi int) [2]int { return [2]int{lo, hi} }
