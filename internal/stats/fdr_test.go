package stats

import (
	"math"
	"testing"
)

// bhMask is the procedure's rejection mask built from the cut:
// the p <= q subset (a NaN counted as 1) through BenjaminiHochbergCut, then
// p <= p* per input. The audit flags through the cut alone; the tests state
// the procedure's properties as a mask.
func bhMask(pvalues []float64, q float64) []bool {
	out := make([]bool, len(pvalues))
	var small []float64
	for _, p := range pvalues {
		if math.IsNaN(p) {
			p = 1
		}
		if p <= q {
			small = append(small, p)
		}
	}
	pstar, ok := BenjaminiHochbergCut(small, len(pvalues), q)
	for i, p := range pvalues {
		out[i] = ok && p <= pstar // false for NaN
	}
	return out
}

func TestBenjaminiHochbergKnownExample(t *testing.T) {
	// Classic worked example: n=6, q=0.25.
	p := []float64{0.009, 0.011, 0.039, 0.041, 0.042, 0.06}
	rej := bhMask(p, 0.25)
	// Thresholds k/6*0.25: 0.0417, 0.0833, 0.125, 0.1667, 0.2083, 0.25.
	// Largest k with p_(k) <= threshold: k=5 (0.042 <= 0.2083); k=6 fails
	// (0.06 <= 0.25 holds!). So all six are rejected.
	for i, r := range rej {
		if !r {
			t.Errorf("hypothesis %d should be rejected", i)
		}
	}
}

func TestBenjaminiHochbergPartialRejection(t *testing.T) {
	p := []float64{0.001, 0.008, 0.039, 0.041, 0.2, 0.9}
	rej := bhMask(p, 0.05)
	// Thresholds k/6*0.05: .0083, .0167, .025, .0333, .0417, .05.
	// k=1: .001<=.0083 ok; k=2: .008<=.0167 ok; k=3: .039>.025; k=4:
	// .041>.0333; rest fail. Cut = 2.
	want := []bool{true, true, false, false, false, false}
	for i := range want {
		if rej[i] != want[i] {
			t.Errorf("rej[%d] = %v, want %v (full: %v)", i, rej[i], want[i], rej)
		}
	}
}

func TestBenjaminiHochbergOrderIndependent(t *testing.T) {
	p := []float64{0.9, 0.001, 0.2, 0.008}
	rej := bhMask(p, 0.05)
	if !rej[1] || !rej[3] {
		t.Errorf("small p-values should be rejected regardless of position: %v", rej)
	}
	if rej[0] || rej[2] {
		t.Errorf("large p-values should survive: %v", rej)
	}
}

func TestBenjaminiHochbergEdgeCases(t *testing.T) {
	if got := bhMask(nil, 0.05); len(got) != 0 {
		t.Error("empty input should give empty output")
	}
	if got := bhMask([]float64{0.01}, 0); got[0] {
		t.Error("q=0 rejects nothing")
	}
	if got := bhMask([]float64{0.04}, 0.05); !got[0] {
		t.Error("single p below q should be rejected")
	}
	all := bhMask([]float64{1, 1, 1}, 0.05)
	for _, r := range all {
		if r {
			t.Error("p=1 must never be rejected")
		}
	}
}

func TestBenjaminiHochbergControlsFDRUnderNull(t *testing.T) {
	// All-null p-values (uniform): the expected number of rejections is
	// tiny; check the empirical rate over many trials.
	rng := NewRNG(91)
	trials, n := 200, 50
	rejections := 0
	for tr := 0; tr < trials; tr++ {
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
		}
		for _, r := range bhMask(p, 0.05) {
			if r {
				rejections++
			}
		}
	}
	// Under the global null, the probability of ANY rejection is about q.
	rate := float64(rejections) / float64(trials*n)
	if rate > 0.01 {
		t.Errorf("null rejection rate %v, want near 0", rate)
	}
}
