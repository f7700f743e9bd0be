package stats

import (
	"math"
	"sort"
)

// BenjaminiHochberg applies the Benjamini–Hochberg step-up procedure to a
// set of p-values, returning a boolean per input reporting whether that
// hypothesis is rejected at false-discovery rate q.
//
// The LC-SF audit tests thousands of region pairs; the paper controls each
// test at a fixed significance level, which bounds the per-pair error but
// not the share of false discoveries among the flagged pairs. FDR control is
// offered as an extension (Config.FDR in the core package) for auditors who
// need the flagged list itself to be mostly real.
//
// Two structural facts keep it to one sort of a small subset and one
// compare per input:
//
//   - The step-up rejection set is a pure value threshold: the cut k* is a
//     function of the sorted p-value multiset alone, and a tie group can
//     never straddle it — if p_(k) passes its threshold and p_(k+1) equals
//     it, p_(k+1) passes the strictly larger threshold too — so "rejected"
//     is exactly "p <= p_(k*)".
//   - A rank-k threshold k/n*q never exceeds q, so only p-values at or below
//     q can ever satisfy the inequality, and the global rank of such a value
//     equals its rank within that subset (every excluded value is strictly
//     larger). The procedure therefore sorts only the subset — for audit
//     workloads a small fraction of the candidate set — while comparing
//     against the same k/n*q lines.
//
// A NaN p-value (which no LC-SF pipeline produces) ranks as if it were 1 and
// is never rejected.
func BenjaminiHochberg(pvalues []float64, q float64) []bool {
	n := len(pvalues)
	out := make([]bool, n)
	if n == 0 || q <= 0 {
		return out
	}
	small := make([]float64, 0, n)
	for _, p := range pvalues {
		if math.IsNaN(p) {
			p = 1
		}
		if p <= q {
			small = append(small, p)
		}
	}
	if len(small) == 0 {
		return out
	}
	sort.Float64s(small)

	// Find the largest k with p_(k) <= k/n * q; k is a global rank (see
	// above), while only the subset's prefix can satisfy the inequality.
	cut := -1
	for k := 1; k <= len(small); k++ {
		if small[k-1] <= float64(k)/float64(n)*q {
			cut = k
		}
	}
	if cut < 0 {
		return out
	}
	pstar := small[cut-1]
	for i, p := range pvalues {
		out[i] = p <= pstar // false for NaN
	}
	return out
}
