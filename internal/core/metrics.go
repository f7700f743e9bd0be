// Package core implements the paper's contribution: the legally-compliant
// spatial fairness (LC-SF) framework.
//
// The framework audits the outputs of a location-based decision-making model
// for fairness with respect to location AND legally protected attributes
// simultaneously (Definition 3.3 of the paper). It enumerates pairs of
// spatial partitions that are
//
//  1. similar in the non-protected attributes (Sim(f_i, f_j) >= epsilon),
//  2. dissimilar in the protected attributes (Diss(p_i, p_j) >= delta),
//
// and tests whether their outcomes differ with the pairwise likelihood-ratio
// test of Section 3.2, calibrated by Monte-Carlo simulation. A pair passing
// both gates whose outcomes differ significantly is spatially unfair.
//
// Because every comparison is local-vs-local rather than local-vs-global,
// redrawing partition boundaries only produces a fresh set of comparisons —
// the MAUP-resistance argument of Section 3.3, which the experiments package
// demonstrates empirically.
package core

import (
	"math"

	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// PairMetric scores a pair of regions and decides whether the score passes a
// gate at a threshold. The paper's framework is explicitly metric-pluggable
// ("the flexibility to incorporate different (dis)similarity metrics tailored
// for specific tasks"); both the similarity and the dissimilarity gate accept
// any PairMetric.
type PairMetric interface {
	// Name identifies the metric in reports.
	Name() string
	// Score returns the metric value for the pair. NaN means the pair is not
	// comparable under this metric (for example, an empty income sample) and
	// never passes.
	Score(a, b *partition.Region) float64
	// Pass reports whether score satisfies the gate at the given threshold.
	// Each metric documents its own direction (>= or <=).
	Pass(score, threshold float64) bool
}

// MannWhitneySimilarity gates non-protected-attribute similarity with the
// two-sided Mann–Whitney U test on the regions' income samples, the metric
// the paper's mortgage experiments use. The score is the test's p-value; the
// pair passes when score >= epsilon, i.e. the incomes are not distinguishable
// even at the epsilon level.
type MannWhitneySimilarity struct{}

// Name implements PairMetric.
func (MannWhitneySimilarity) Name() string { return "mann-whitney-u" }

// Score implements PairMetric.
func (MannWhitneySimilarity) Score(a, b *partition.Region) float64 {
	return stats.MannWhitneyU(a.IncomeSample(), b.IncomeSample()).P
}

// Pass implements PairMetric: similar when the p-value is at least epsilon.
func (MannWhitneySimilarity) Pass(score, threshold float64) bool {
	return !math.IsNaN(score) && score >= threshold
}

// WelchTSimilarity gates non-protected-attribute similarity with Welch's
// unequal-variance t-test on the regions' income samples. The score is the
// test's two-sided p-value; the pair passes when score >= epsilon. A
// parametric alternative to the rank-based Mann–Whitney gate: sensitive to
// mean differences only, not to distribution shape.
type WelchTSimilarity struct{}

// Name implements PairMetric.
func (WelchTSimilarity) Name() string { return "welch-t" }

// Score implements PairMetric.
func (WelchTSimilarity) Score(a, b *partition.Region) float64 {
	return stats.WelchT(a.IncomeSample(), b.IncomeSample()).P
}

// Pass implements PairMetric: similar when the p-value is at least epsilon.
func (WelchTSimilarity) Pass(score, threshold float64) bool {
	return !math.IsNaN(score) && score >= threshold
}

// MeanGapSimilarity is an alternative similarity gate on the relative gap of
// mean incomes: score = |mean_a - mean_b| / max(mean_a, mean_b). The pair
// passes when score <= threshold. It is cheaper and cruder than the U test
// and is used in ablations.
type MeanGapSimilarity struct{}

// Name implements PairMetric.
func (MeanGapSimilarity) Name() string { return "mean-gap" }

// Score implements PairMetric.
func (MeanGapSimilarity) Score(a, b *partition.Region) float64 {
	return meanGapFromMeans(stats.Mean(a.IncomeSample()), stats.Mean(b.IncomeSample()))
}

// Pass implements PairMetric: similar when the relative gap is small.
func (MeanGapSimilarity) Pass(score, threshold float64) bool {
	return !math.IsNaN(score) && score <= threshold
}

// KolmogorovSmirnovSimilarity gates non-protected-attribute similarity with
// the two-sample Kolmogorov–Smirnov test on the regions' income samples. The
// score is the test's p-value; the pair passes when score >= epsilon. Unlike
// the Mann–Whitney U test it is sensitive to any distributional difference —
// spread and shape, not only location — making it the stricter notion of
// "similar income distribution".
type KolmogorovSmirnovSimilarity struct{}

// Name implements PairMetric.
func (KolmogorovSmirnovSimilarity) Name() string { return "kolmogorov-smirnov" }

// Score implements PairMetric.
func (KolmogorovSmirnovSimilarity) Score(a, b *partition.Region) float64 {
	return stats.KolmogorovSmirnov(a.IncomeSample(), b.IncomeSample()).P
}

// Pass implements PairMetric: similar when the p-value is at least epsilon.
func (KolmogorovSmirnovSimilarity) Pass(score, threshold float64) bool {
	return !math.IsNaN(score) && score >= threshold
}

// ZScoreDissimilarity gates protected-attribute dissimilarity with the
// two-proportion z-test on the regions' protected-group shares, the metric
// the paper's mortgage experiments use. The score is the test's two-sided
// p-value; the pair passes when score <= delta, i.e. the racial compositions
// differ significantly at the delta level.
type ZScoreDissimilarity struct{}

// Name implements PairMetric.
func (ZScoreDissimilarity) Name() string { return "z-score" }

// Score implements PairMetric.
func (ZScoreDissimilarity) Score(a, b *partition.Region) float64 {
	return stats.TwoProportionZ(a.Protected, a.N, b.Protected, b.N).P
}

// Pass implements PairMetric: dissimilar when the p-value is at most delta.
func (ZScoreDissimilarity) Pass(score, threshold float64) bool {
	return !math.IsNaN(score) && score <= threshold
}

// StatParityDissimilarity gates protected-attribute dissimilarity with the
// statistical-parity gap applied to group composition (Section 5.3): the
// score is |share_a - share_b|, the absolute difference of the regions'
// protected-group shares, and the pair passes when score >= threshold.
// Unlike the z-test it does not lose power in small regions, which is why
// Table 4 reports more unfair pairs than Table 2 at fine resolutions.
type StatParityDissimilarity struct{}

// Name implements PairMetric.
func (StatParityDissimilarity) Name() string { return "statistical-parity" }

// Score implements PairMetric.
func (StatParityDissimilarity) Score(a, b *partition.Region) float64 {
	return math.Abs(preparedShare(a) - preparedShare(b))
}

// Pass implements PairMetric: dissimilar when the share gap is at least the
// threshold.
func (StatParityDissimilarity) Pass(score, threshold float64) bool {
	return !math.IsNaN(score) && score >= threshold
}

// DisparateImpactDissimilarity gates dissimilarity with the disparate-impact
// ratio applied to composition: score = min(share)/max(share); the pair
// passes when score <= threshold (the 80% rule uses threshold 0.8). Included
// as a further example of the framework's metric pluggability.
type DisparateImpactDissimilarity struct{}

// Name implements PairMetric.
func (DisparateImpactDissimilarity) Name() string { return "disparate-impact" }

// Score implements PairMetric.
func (DisparateImpactDissimilarity) Score(a, b *partition.Region) float64 {
	return disparateImpactFromShares(preparedShare(a), preparedShare(b))
}

// Pass implements PairMetric: dissimilar when the ratio is at most the
// threshold.
func (DisparateImpactDissimilarity) Pass(score, threshold float64) bool {
	return !math.IsNaN(score) && score <= threshold
}
