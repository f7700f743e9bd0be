package stats

import "sort"

// BenjaminiHochbergCut applies the Benjamini–Hochberg step-up procedure to a
// family of n p-values at false-discovery rate q, given only small, the
// family's p-values at or below q (a NaN counted as 1). It sorts small in
// place and returns p*, the largest p-value the procedure rejects — the
// family's rejections are exactly its p-values <= p* — with ok false when
// nothing is rejected.
//
// The LC-SF audit tests thousands of region pairs; the paper controls each
// test at a fixed significance level, which bounds the per-pair error but
// not the share of false discoveries among the flagged pairs. FDR control is
// offered as an extension (Config.FDR in the core package) for auditors who
// need the flagged list itself to be mostly real.
//
// Two structural facts let the procedure read the p <= q subset alone:
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
// Callers that keep the p <= q subset apart, like the audit's sweep and the
// delta auditor's low set, pay for that subset only.
func BenjaminiHochbergCut(small []float64, n int, q float64) (pstar float64, ok bool) {
	sort.Float64s(small)
	return BenjaminiHochbergCutSorted(small, n, q)
}

// BenjaminiHochbergCutSorted is BenjaminiHochbergCut over a subset already
// sorted ascending, which it leaves as it is. The delta auditor keeps its
// low set's p-values sorted across passes and cuts them here.
func BenjaminiHochbergCutSorted(small []float64, n int, q float64) (pstar float64, ok bool) {
	if len(small) == 0 || q <= 0 {
		return 0, false
	}

	// Find the largest k with p_(k) <= k/n * q; k is a global rank (see
	// above), while only the subset's prefix can satisfy the inequality.
	cut := -1
	for k := 1; k <= len(small); k++ {
		if small[k-1] <= float64(k)/float64(n)*q {
			cut = k
		}
	}
	if cut < 0 {
		return 0, false
	}
	return small[cut-1], true
}
