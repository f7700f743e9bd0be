package stats

import (
	"math"
	"sort"
	"testing"
)

// referenceMannWhitney is the classic combined-sort Mann–Whitney: concatenate
// both samples, sort once, assign mid-ranks to tie groups in a linear scan.
// It is the specification the merge-rank kernel must match; keeping it in the
// test suite pins MannWhitneyUSorted against an independent implementation
// rather than against itself.
func referenceMannWhitney(xs, ys []float64) MannWhitneyResult {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return MannWhitneyResult{U: math.NaN(), Z: math.NaN(), P: math.NaN()}
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range xs {
		all = append(all, obs{v, true})
	}
	for _, v := range ys {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	var rankSum1, tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v { //lint:floateq-ok exact-tie-grouping
			j++
		}
		t := j - i
		midRank := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].first {
				rankSum1 += midRank
			}
		}
		if t > 1 {
			ft := float64(t)
			tieTerm += ft*ft*ft - ft
		}
		i = j
	}
	return mannWhitneyFromRankSum(rankSum1, tieTerm, n1, n2)
}

// randomSample draws n values; with tied=true values land on a coarse integer
// grid so cross- and within-sample ties are common, otherwise they are
// (almost surely) distinct continuous draws.
func randomSample(rng *RNG, n int, tied bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		if tied {
			out[i] = float64(rng.Intn(8))
		} else {
			out[i] = rng.Float64()*2000 - 1000
		}
	}
	return out
}

// TestMannWhitneyMergeMatchesSortReference is the merge-rank property test:
// across random tied and untied samples of varying (including degenerate)
// sizes, MannWhitneyUSorted on pre-sorted inputs agrees with the independent
// combined-sort reference to 1e-12 in U, Z, and P — and MannWhitneyU (which
// delegates to the merge kernel) agrees on the raw samples.
func TestMannWhitneyMergeMatchesSortReference(t *testing.T) {
	rng := NewRNG(0x4E7C4A5E)
	sizes := []int{1, 2, 3, 5, 17, 50, 200}
	for trial := 0; trial < 200; trial++ {
		n1 := sizes[rng.Intn(len(sizes))]
		n2 := sizes[rng.Intn(len(sizes))]
		tied := trial%2 == 0
		xs := randomSample(rng, n1, tied)
		ys := randomSample(rng, n2, tied)

		want := referenceMannWhitney(xs, ys)

		sx := append([]float64(nil), xs...)
		sy := append([]float64(nil), ys...)
		sort.Float64s(sx)
		sort.Float64s(sy)
		got := MannWhitneyUSorted(sx, sy)
		raw := MannWhitneyU(xs, ys)

		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"U(sorted)", got.U, want.U},
			{"Z(sorted)", got.Z, want.Z},
			{"P(sorted)", got.P, want.P},
			{"U(raw)", raw.U, want.U},
			{"Z(raw)", raw.Z, want.Z},
			{"P(raw)", raw.P, want.P},
		} {
			if math.Abs(c.got-c.want) > 1e-12 {
				t.Fatalf("trial %d (n1=%d n2=%d tied=%v): %s = %v, reference %v",
					trial, n1, n2, tied, c.name, c.got, c.want)
			}
		}
	}
}

// TestKolmogorovSmirnovSortedMatchesUnsorted pins the merge-based KS kernel
// against the public entry point: identical results (bit for bit) on sorted
// copies of random samples, tied and untied.
func TestKolmogorovSmirnovSortedMatchesUnsorted(t *testing.T) {
	rng := NewRNG(0x4B53)
	for trial := 0; trial < 100; trial++ {
		n1 := 1 + rng.Intn(80)
		n2 := 1 + rng.Intn(80)
		tied := trial%2 == 0
		xs := randomSample(rng, n1, tied)
		ys := randomSample(rng, n2, tied)
		want := KolmogorovSmirnov(xs, ys)
		sx := append([]float64(nil), xs...)
		sy := append([]float64(nil), ys...)
		sort.Float64s(sx)
		sort.Float64s(sy)
		got := KolmogorovSmirnovSorted(sx, sy)
		if got.D != want.D || got.P != want.P {
			t.Fatalf("trial %d: sorted KS = %+v, unsorted %+v", trial, got, want)
		}
	}
}

// TestWelchTFromMomentsMatchesRaw pins the moment-cache Welch path against
// the raw-sample entry point.
func TestWelchTFromMomentsMatchesRaw(t *testing.T) {
	rng := NewRNG(0x7E57)
	for trial := 0; trial < 100; trial++ {
		n1 := 2 + rng.Intn(60)
		n2 := 2 + rng.Intn(60)
		xs := randomSample(rng, n1, false)
		ys := randomSample(rng, n2, false)
		want := WelchT(xs, ys)
		got := WelchTFromMoments(
			len(xs), Mean(xs), SampleVariance(xs),
			len(ys), Mean(ys), SampleVariance(ys))
		if got != want {
			t.Fatalf("trial %d: moments Welch = %+v, raw %+v", trial, got, want)
		}
	}
}

// TestPairMonteCarloMatchesClosure verifies the allocation-free Monte-Carlo
// entry point consumes the identical RNG stream as the closure-based
// original: same seed, same p-value.
func TestPairMonteCarloMatchesClosure(t *testing.T) {
	const n1, n2 = 180, 240
	const pooled = 0.57
	const m = 499
	for trial := 0; trial < 20; trial++ {
		seed := uint64(0xACED + trial)
		observed := float64(trial) * 0.9

		a := NewRNG(seed)
		b := NewRNG(seed)
		want := MonteCarloP(observed, m, PairNullSimulator(a, n1, n2, pooled))
		got := PairMonteCarloP(b, observed, m, n1, n2, pooled)
		if got != want {
			t.Fatalf("trial %d: PairMonteCarloP = %v, closure %v", trial, got, want)
		}
	}
}
