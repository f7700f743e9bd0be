package core

import (
	"math"
	"sort"

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
//
// It reads only the regions' sorted samples: the bin edges are order
// statistics of the two sorted samples, and a bin's members and positives
// are differences of binary searches at its edges, so a pair costs
// O(bins·log n) however large its samples.
func Explain(a, b *partition.Region, bins int) Explanation {
	sa, sb := a.IncomeSample(), b.IncomeSample()
	if len(sa) == 0 || len(sb) == 0 {
		return Explanation{}
	}
	if bins <= 0 {
		bins = DefaultExplainBins
	}
	// Keep at least ~8 pooled observations per bin.
	if max := (len(sa) + len(sb)) / 8; bins > max {
		bins = max
	}
	if bins < 1 {
		bins = 1
	}

	// Equal-count bin edges over the pooled incomes. Bin k holds the
	// incomes x with edges[k-1] <= x < edges[k] (open-ended at either end),
	// so a sorted slice's members of bins 0..k-1 are its elements below
	// edges[k-1].
	edges := make([]float64, bins-1)
	pooledOrderStats(edges, sa, sb, bins)
	pa, pb := a.PositiveIncomeSample(), b.PositiveIncomeSample()
	below := func(s []float64, k int) int {
		if k == bins {
			return len(s)
		}
		return sort.SearchFloat64s(s, edges[k-1])
	}

	// Pooled per-bin positive rates, weighted by each region's bin share.
	na, nb := float64(len(sa)), float64(len(sb))
	var expA, expB float64
	var ca, cb, cpa, cpb int // members of bins 0..k-1, per slice
	for k := 1; k <= bins; k++ {
		ca1, cb1, cpa1, cpb1 := below(sa, k), below(sb, k), below(pa, k), below(pb, k)
		if n := ca1 - ca + cb1 - cb; n > 0 {
			rate := float64(cpa1-cpa+cpb1-cpb) / float64(n)
			shareA, shareB := float64(ca1-ca)/na, float64(cb1-cb)/nb
			expA += shareA * rate
			expB += shareB * rate
		}
		ca, cb, cpa, cpb = ca1, cb1, cpa1, cpb1
	}

	obs := float64(len(pb))/nb - float64(len(pa))/na
	explained := expB - expA
	return Explanation{
		ObservedGap:     obs,
		IncomeExplained: explained,
		Residual:        obs - explained,
		Bins:            bins,
	}
}

// pooledOrderStats sets edges[k-1] to the element at index t = k*n/bins of
// the pooled sample, n = len(sa)+len(sb), selected from the two ascending
// samples without merging them: the t+1 smallest pooled elements are
// sa[:i] and sb[:t+1-i] for the first i at which sa[i] is no smaller than
// sb's last taken element, found by bisection, and the edge is the larger
// of the two last taken. Samples hold finite incomes only (partition drops
// the rest), so the edge is the value a sorted pooled copy holds at that
// index, up to ±0, which compare alike in every bin lookup.
func pooledOrderStats(edges, sa, sb []float64, bins int) {
	n := len(sa) + len(sb)
	for k := range edges {
		take := (k+1)*n/bins + 1
		lo, hi := max(0, take-len(sb)), min(len(sa), take)
		for lo < hi {
			i := int(uint(lo+hi) >> 1)
			if sa[i] < sb[take-1-i] {
				lo = i + 1
			} else {
				hi = i
			}
		}
		switch j := take - lo; {
		case lo == 0:
			edges[k] = sb[j-1]
		case j == 0:
			edges[k] = sa[lo-1]
		default:
			edges[k] = max(sa[lo-1], sb[j-1])
		}
	}
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
