package stats

import (
	"math"
	"sort"
	"testing"
)

// fullSortBH is the textbook step-up procedure over an index sort of the
// whole input, the reference the subset-sorting BenjaminiHochberg must
// match on NaN-free input.
func fullSortBH(pvalues []float64, q float64) []bool {
	n := len(pvalues)
	out := make([]bool, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pvalues[order[a]] < pvalues[order[b]] })

	cut := -1
	for k := 1; k <= n; k++ {
		if pvalues[order[k-1]] <= float64(k)/float64(n)*q {
			cut = k
		}
	}
	for k := 0; k < cut; k++ {
		out[order[k]] = true
	}
	return out
}

// TestBenjaminiHochbergSubsetMatchesFullSort is the direct check of the
// subset-reduction equivalence argument: on NaN-free inputs the p <= q
// subset procedure must produce the identical rejection mask to a full
// index sort, including inputs with heavy ties, values straddling q, and
// degenerate all-large / all-small mixes.
func TestBenjaminiHochbergSubsetMatchesFullSort(t *testing.T) {
	rng := NewRNG(0xFD4)
	for trial := 0; trial < 200; trial++ {
		n := int(rng.Uint64() % 300)
		p := make([]float64, n)
		for i := range p {
			switch rng.Uint64() % 4 {
			case 0:
				p[i] = rng.Float64() * 0.02 // dense near zero
			case 1:
				p[i] = rng.Float64() // uniform
			case 2:
				p[i] = 0.05 // exactly at a typical q: ties on the threshold
			default:
				p[i] = 0.5 + rng.Float64()*0.5 // never rejectable
			}
		}
		q := []float64{0.01, 0.05, 0.2}[trial%3]
		want := fullSortBH(p, q)
		got := BenjaminiHochberg(p, q)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d q=%g: index %d (p=%g): subset says %v, full sort says %v",
					trial, q, i, p[i], got[i], want[i])
			}
		}
	}
}

// TestBenjaminiHochbergNaNRanksAsOne pins the NaN contract: a NaN p-value
// is never rejected, and every other index gets the mask it would get with
// each NaN replaced by 1 — the NaN still counts in n. q = 1 is the one
// level at which a p-value of 1 can be rejected, so there the NaN's own
// index is the only difference.
func TestBenjaminiHochbergNaNRanksAsOne(t *testing.T) {
	p := []float64{0.001, math.NaN(), 0.004, 0.9, 0.02, math.NaN(), 0.7, 1}
	ones := append([]float64(nil), p...)
	for i := range ones {
		if math.IsNaN(ones[i]) {
			ones[i] = 1
		}
	}
	for _, q := range []float64{0.01, 0.05, 0.2, 1} {
		got, want := BenjaminiHochberg(p, q), BenjaminiHochberg(ones, q)
		for i := range p {
			if math.IsNaN(p[i]) {
				if got[i] {
					t.Errorf("q=%g: NaN at index %d rejected", q, i)
				}
			} else if got[i] != want[i] {
				t.Errorf("q=%g: index %d (p=%g) = %v, with NaN as 1 = %v", q, i, p[i], got[i], want[i])
			}
		}
	}
	// The NaNs count in n = 8: 0.001 <= 0.05/8 and 0.004 <= 0.1/8 are
	// rejected, 0.02 > 0.15/8 is not (it would pass 0.15/6 with n = 6).
	got := BenjaminiHochberg(p, 0.05)
	for i, want := range []bool{true, false, true, false, false, false, false, false} {
		if got[i] != want {
			t.Errorf("q=0.05: index %d = %v, want %v", i, got[i], want)
		}
	}
}
