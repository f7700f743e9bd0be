package stats

import (
	"math"
	"sort"
	"sync"
)

// BenjaminiHochbergWorkers applies the Benjamini–Hochberg step-up procedure
// to a set of p-values, returning a boolean per input reporting whether that
// hypothesis is rejected at false-discovery rate q.
//
// The LC-SF audit tests thousands of region pairs; the paper controls each
// test at a fixed significance level, which bounds the per-pair error but
// not the share of false discoveries among the flagged pairs. FDR control is
// offered as an extension (Config.FDR in the core package) for auditors who
// need the flagged list itself to be mostly real.
//
// The sort and the marking pass run across up to workers goroutines; every
// worker count (including 1, which runs fully sequentially) produces the
// identical rejection mask. Two structural facts make that cheap:
//
//   - The step-up rejection set is a pure value threshold: the cut k* is a
//     function of the sorted p-value multiset alone, and a tie group can
//     never straddle it — if p_(k) passes its threshold and p_(k+1) equals
//     it, p_(k+1) passes the strictly larger threshold too — so "rejected"
//     is exactly "p <= p_(k*)" and the marking pass is one compare per input
//     in any order.
//   - A rank-k threshold k/n*q never exceeds q, so only p-values at or below
//     q can ever satisfy the inequality, and the global rank of such a value
//     equals its rank within that subset (every excluded value is strictly
//     larger). The procedure therefore sorts only the subset — for audit
//     workloads a small fraction of the candidate set — instead of all n
//     values, while comparing against the same k/n*q lines.
//
// NaN p-values (which no LC-SF pipeline produces) void the rank equivalence,
// so any NaN falls back to the original full index sort.
func BenjaminiHochbergWorkers(pvalues []float64, q float64, workers int) []bool {
	n := len(pvalues)
	out := make([]bool, n)
	if n == 0 || q <= 0 {
		return out
	}
	small := make([]float64, 0, n)
	for _, p := range pvalues {
		if math.IsNaN(p) {
			return benjaminiHochbergNaN(pvalues, q)
		}
		if p <= q {
			small = append(small, p)
		}
	}
	if len(small) == 0 {
		return out
	}
	if workers > 1 && len(small) >= parallelSortThreshold {
		ParallelSortFloat64s(small, workers)
	} else {
		sort.Float64s(small)
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
		return out
	}
	pstar := small[cut-1]
	if workers <= 1 || n < parallelSortThreshold {
		for i, p := range pvalues {
			out[i] = p <= pstar
		}
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = pvalues[i] <= pstar
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// benjaminiHochbergNaN is the pre-subset-reduction implementation, kept as
// the fallback for inputs containing NaN: it sorts an index permutation of
// the full input and marks the sorted prefix, reproducing the historical
// (comparator-placement-dependent) treatment of NaN ranks exactly.
func benjaminiHochbergNaN(pvalues []float64, q float64) []bool {
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
