package stats

import (
	"math"
	"testing"
	"time"
)

// TestRankTestsTerminateOnNaN pins the rank kernels' NaN contract: a sample
// holding a NaN yields P = NaN, like an empty one, and every kernel returns
// — sorted NaN-first as sort.Float64s leaves it, or with the NaN out of
// place. The tie-grouping merges once looped forever on a NaN, which no
// value equals, so the whole table runs under a deadline.
func TestRankTestsTerminateOnNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		xs, ys []float64
	}{
		{"sorted-x", []float64{nan, 1, 2, 3}, []float64{1.5, 2.5}},
		{"sorted-y", []float64{1, 2, 3}, []float64{nan, 2.5}},
		{"unsorted-x-middle", []float64{1, nan, 3}, []float64{1.5, 2.5}},
		{"unsorted-x-last", []float64{1, 2, nan}, []float64{1.5, 2.5}},
		{"unsorted-y-last", []float64{1, 2, 3}, []float64{2.5, nan}},
		{"all-nan", []float64{nan, nan}, []float64{nan}},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tc := range cases {
			if p := MannWhitneyUSorted(tc.xs, tc.ys).P; !math.IsNaN(p) {
				t.Errorf("%s: MannWhitneyUSorted P = %v, want NaN", tc.name, p)
			}
			if p := MannWhitneyU(tc.xs, tc.ys).P; !math.IsNaN(p) {
				t.Errorf("%s: MannWhitneyU P = %v, want NaN", tc.name, p)
			}
			if p := KolmogorovSmirnov(tc.xs, tc.ys).P; !math.IsNaN(p) {
				t.Errorf("%s: KolmogorovSmirnov P = %v, want NaN", tc.name, p)
			}
			KolmogorovSmirnovSorted(tc.xs, tc.ys) // unsorted input: any result, but it must return
			MannWhitneyUSortedNoTies(tc.xs, tc.ys)
			KolmogorovSmirnovSortedNoTies(tc.xs, tc.ys)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a rank kernel did not return on NaN input within 10s")
	}
}
