package core

import (
	"math"

	"lcsf/internal/partition"
)

// Explanation decomposes an outcome gap between two regions into the part a
// legitimate income effect accounts for and the unexplained residual.
//
// The decomposition is a reweighting argument: pool both regions' (income,
// outcome) samples, estimate the pooled positive rate within equal-count
// income bins, and compute each region's *expected* rate as the bin-rate
// average weighted by its own income mix. If income were the whole story,
// the expected rates would reproduce the observed ones; the part of the
// observed gap the expected gap fails to reproduce is the residual — the
// disparity left after conditioning on income. A large residual on a flagged
// pair is the quantitative form of the paper's legal argument: the outcome
// difference is not explainable by the legitimate attribute.
type Explanation struct {
	ObservedGap     float64 // rate(J) - rate(I), from the sampled outcomes
	IncomeExplained float64 // the gap the pooled income effect predicts
	Residual        float64 // ObservedGap - IncomeExplained
	Bins            int     // income bins actually used
}

// DefaultExplainBins is the equal-count bin count used when 0 is passed.
const DefaultExplainBins = 10

// Explain decomposes the outcome gap of regions a and b (oriented so the gap
// is rate(b) - rate(a)). bins <= 0 uses DefaultExplainBins; the bin count is
// reduced when samples are small so every bin keeps several observations.
// Regions without samples produce a zero Explanation.
func Explain(a, b *partition.Region, bins int) Explanation {
	ia, oa := a.IncomeSample(), a.OutcomeSample()
	ib, ob := b.IncomeSample(), b.OutcomeSample()
	if len(ia) == 0 || len(ib) == 0 {
		return Explanation{}
	}
	if bins <= 0 {
		bins = DefaultExplainBins
	}
	// Keep at least ~8 pooled observations per bin.
	if max := (len(ia) + len(ib)) / 8; bins > max {
		bins = max
	}
	if bins < 1 {
		bins = 1
	}

	// Equal-count bin edges over the pooled incomes.
	edges := make([]float64, bins-1)
	pooledOrderStats(edges, a.SortedIncomeSample(), b.SortedIncomeSample(), bins)
	binOf := func(x float64) int {
		// First edge strictly greater than x.
		lo, hi := 0, len(edges)
		for lo < hi {
			mid := (lo + hi) / 2
			if edges[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Pooled per-bin positive rates and per-region bin occupancy.
	binPos := make([]int, bins)
	binN := make([]int, bins)
	aShare := make([]float64, bins)
	bShare := make([]float64, bins)
	accumulate := func(incomes []float64, outcomes []bool, share []float64) float64 {
		positives := 0
		for i, x := range incomes {
			k := binOf(x)
			binN[k]++
			share[k]++
			if outcomes[i] {
				binPos[k]++
				positives++
			}
		}
		for k := range share {
			share[k] /= float64(len(incomes))
		}
		return float64(positives) / float64(len(incomes))
	}
	rateA := accumulate(ia, oa, aShare)
	rateB := accumulate(ib, ob, bShare)

	var expA, expB float64
	for k := 0; k < bins; k++ {
		if binN[k] == 0 {
			continue
		}
		rate := float64(binPos[k]) / float64(binN[k])
		expA += aShare[k] * rate
		expB += bShare[k] * rate
	}

	obs := rateB - rateA
	explained := expB - expA
	return Explanation{
		ObservedGap:     obs,
		IncomeExplained: explained,
		Residual:        obs - explained,
		Bins:            bins,
	}
}

// pooledOrderStats sets edges[k-1] to the element at index k*n/bins of the
// pooled sample, n = len(sa)+len(sb), read off a merge of the two ascending
// samples instead of sorting their concatenation. The merge orders values as
// sort.Float64s does (NaN first), so each edge is the value a sorted pooled
// copy holds at that index, up to the ties (±0, NaN payloads) that compare
// alike in every bin lookup.
func pooledOrderStats(edges, sa, sb []float64, bins int) {
	n := len(sa) + len(sb)
	i, j := 0, 0 // merged so far: sa[:i] and sb[:j]
	takeA := func() bool {
		return j == len(sb) || (i < len(sa) && !float64Less(sb[j], sa[i]))
	}
	for k := range edges {
		for target := (k + 1) * n / bins; i+j < target; {
			if takeA() {
				i++
			} else {
				j++
			}
		}
		if takeA() {
			edges[k] = sa[i]
		} else {
			edges[k] = sb[j]
		}
	}
}

// float64Less is sort.Float64s's order: ascending, NaN before every number.
func float64Less(x, y float64) bool {
	return x < y || (math.IsNaN(x) && !math.IsNaN(y))
}

// ExplainPair decomposes the gap of an UnfairPair within its partitioning,
// oriented the pair's way (I disadvantaged): positive residual means region
// J's advantage is not explained by income.
func ExplainPair(p *partition.Partitioning, pr UnfairPair, bins int) Explanation {
	return Explain(&p.Regions[pr.I], &p.Regions[pr.J], bins)
}

// ExplainedFraction returns the share of the observed gap income accounts
// for, clamped to [0, 1]; 0 when the observed gap is ~zero.
func (e Explanation) ExplainedFraction() float64 {
	if math.Abs(e.ObservedGap) < 1e-12 {
		return 0
	}
	f := e.IncomeExplained / e.ObservedGap
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
