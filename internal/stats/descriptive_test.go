package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almostEq(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	if sv := SampleVariance(xs); !almostEq(sv, 32.0/7, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", sv, 32.0/7)
	}
}

func TestEmptyInputsReturnNaN(t *testing.T) {
	for name, v := range map[string]float64{
		"Mean":           Mean(nil),
		"Variance":       Variance(nil),
		"Median":         Median(nil),
		"Quantile":       Quantile(nil, 0.5),
		"SampleVariance": SampleVariance([]float64{1}),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s(empty) = %v, want NaN", name, v)
		}
	}
}

func TestMedianQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if m := Median(xs); !almostEq(m, 3.5, 1e-12) {
		t.Errorf("Median = %v, want 3.5", m)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("Q0 = %v, want 1", q)
	}
	if q := Quantile(xs, 1); q != 9 {
		t.Errorf("Q1 = %v, want 9", q)
	}
	if q := Quantile([]float64{1, 2, 3, 4}, 0.25); !almostEq(q, 1.75, 1e-12) {
		t.Errorf("Q25 = %v, want 1.75", q)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
	// Quantile must not modify its input.
	if xs[0] != 3 || xs[5] != 9 {
		t.Error("Quantile modified input slice")
	}
}

// Property: variance is invariant under translation and scales quadratically.
func TestVariancePropertiesQuick(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			shift = 1
		}
		v0 := Variance(xs)
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
			scaled[i] = 2 * x
		}
		tol := 1e-6 * (1 + v0)
		return almostEq(Variance(shifted), v0, tol) && almostEq(Variance(scaled), 4*v0, 4*tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: min <= q25 <= median <= q75 <= max for any sample.
func TestQuantileMonotonicQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := Quantile(xs, 0), Quantile(xs, 1)
		q25, med, q75 := Quantile(xs, 0.25), Median(xs), Quantile(xs, 0.75)
		return lo <= q25 && q25 <= med && med <= q75 && q75 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
