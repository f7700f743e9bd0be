package core

import (
	"math"
	"sync/atomic"

	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// This file is the soundness layer of the audit's index-accelerated candidate
// generation. A PrunableMetric can rule pairs out from per-region summaries in
// O(1), before the exact gate cascade runs; the contract — enforced by the
// superset property test — is that pruning NEVER drops a pair the exact gate
// would pass. False positives (pairs emitted and then rejected by the exact
// gate) cost only time; a false negative would silently change the audit's
// flagged set, so every derivation below errs toward keeping the pair.
//
// Two pruning forms are offered and both are optional per metric:
//
//   - Bounds(a, b): a per-pair O(1) test from the two summaries. Exact for
//     metrics whose score is a function of the summary (z-score, stat-parity,
//     disparate-impact, mean-gap, Welch), conservative for the rank tests
//     (Mann–Whitney, KS), whose score depends on full samples the summary
//     only brackets.
//
//   - PruneWindow(probe): a 1-D interval over one summary dimension such that
//     every partner OUTSIDE the window (for Inside windows) or INSIDE the
//     excluded band (for Outside windows) is guaranteed to fail the gate.
//     Windows drive the sorted sliding-window joins that make enumeration
//     sub-quadratic; a metric that cannot express its gate as an interval
//     (the rank tests) returns ok = false and relies on Bounds alone.
//
// Floating-point safety: window endpoints computed in floating point could
// round across the true boundary. Every endpoint is therefore nudged one ulp
// toward keeping the pair — excluded bands shrink, included intervals widen —
// so rounding can only admit extra candidates, never drop one.

// PruneDim names the summary dimension a PruneWindow constrains.
type PruneDim int

// The zero PruneDim names no dimension.
const (
	// PruneProtectedShare windows the partner's protected-group share.
	PruneProtectedShare PruneDim = iota + 1
	// PrunePositiveRate windows the partner's local positive rate.
	PrunePositiveRate
	// PruneIncomeMean windows the partner's mean sampled income.
	PruneIncomeMean
)

// summaryDim maps a PruneDim to the partition.SummaryIndex order backing it.
func (d PruneDim) summaryDim() (partition.SummaryDim, bool) {
	switch d {
	case PruneProtectedShare:
		return partition.DimProtectedShare, true
	case PrunePositiveRate:
		return partition.DimPositiveRate, true
	case PruneIncomeMean:
		return partition.DimIncomeMean, true
	default:
		return 0, false
	}
}

// PruneWindow is one probe region's candidate constraint on a single summary
// dimension.
//
// Inside = true: only partners with key in [Lo, Hi] can pass the gate.
// Inside = false: only partners with key <= Lo or key >= Hi can pass; the
// open band (Lo, Hi) is excluded. An Inside window with Lo > Hi matches
// nothing — the probe itself can never pass the gate.
type PruneWindow struct {
	Dim    PruneDim
	Lo, Hi float64
	Inside bool
}

// PrunableMetric extends PairMetric with sound summary-based pruning. Both
// methods receive the gate threshold the audit will test at and the envelope
// stats of the full eligible-region set.
//
// Bounds reports canReject: true guarantees the exact gate would reject the
// pair, false promises nothing. PruneWindow returns the probe's candidate
// window on one summary dimension and ok = false when the metric cannot
// bound this probe (the engine then scans the probe's full row).
type PrunableMetric interface {
	PairMetric
	Bounds(a, b *partition.RegionSummary, threshold float64, env *partition.SummaryStats) (canReject bool)
	PruneWindow(probe *partition.RegionSummary, threshold float64, env *partition.SummaryStats) (w PruneWindow, ok bool)
}

// excludeBand returns an Outside window whose excluded open band (lo, hi) is
// shrunk one ulp on each side, so a partner key that floating-point rounding
// pushed onto the boundary is kept.
func excludeBand(dim PruneDim, lo, hi float64) PruneWindow {
	return PruneWindow{
		Dim:    dim,
		Lo:     math.Nextafter(lo, math.Inf(1)),
		Hi:     math.Nextafter(hi, math.Inf(-1)),
		Inside: false,
	}
}

// includeInterval returns an Inside window widened one ulp on each side.
func includeInterval(dim PruneDim, lo, hi float64) PruneWindow {
	return PruneWindow{
		Dim:    dim,
		Lo:     math.Nextafter(lo, math.Inf(-1)),
		Hi:     math.Nextafter(hi, math.Inf(1)),
		Inside: true,
	}
}

// emptyWindow matches no partner: the probe itself can never pass the gate,
// which is itself a sound (and maximally effective) window.
func emptyWindow(dim PruneDim) PruneWindow {
	return PruneWindow{Dim: dim, Lo: 1, Hi: -1, Inside: true}
}

// zCritMemo is conservativeZCrit's last evaluation. Every probe of a plan
// build asks for the same threshold, so the bisection runs once per
// threshold rather than once per probe; the function is pure, so a memo hit
// is bit-identical to recomputing.
var zCritMemo atomic.Pointer[zCritEntry]

type zCritEntry struct {
	deltaBits uint64
	z         float64
}

// conservativeZCrit returns a z value that is at most the exact two-sided
// critical value z* = min{z : TwoSidedP(z) <= delta}, by binary search with
// the invariant TwoSidedP(lo) >= delta (hence lo <= z*). Using an
// under-estimate of z* keeps the derived minimum passing gap an
// under-estimate, which is the sound direction for an excluded band.
func conservativeZCrit(delta float64) float64 {
	bits := math.Float64bits(delta)
	if m := zCritMemo.Load(); m != nil && m.deltaBits == bits {
		return m.z
	}
	z := bisectZCrit(delta)
	zCritMemo.Store(&zCritEntry{deltaBits: bits, z: z})
	return z
}

// bisectZCrit is conservativeZCrit without the memo.
func bisectZCrit(delta float64) float64 {
	if delta >= 1 {
		return 0
	}
	lo, hi := 0.0, 50.0
	if stats.TwoSidedP(hi) > delta {
		// Even z = 50 is not significant at delta; 50 still under-estimates
		// the true critical value, so it remains a sound gap bound.
		return hi
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if stats.TwoSidedP(mid) >= delta {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// conservativeTCrit returns an upper bound on the largest |t| whose
// two-sided Student-t p-value at df degrees of freedom is still >= eps: a
// value hi with StudentTTwoSidedP(hi, df) <= eps (hence hi >= the exact
// boundary). Over-estimating the boundary widens the derived inclusion
// interval — the sound direction. Returns +Inf when eps <= 0 (every t
// passes a p >= 0 gate).
func conservativeTCrit(eps, df float64) float64 {
	if eps <= 0 || df <= 0 {
		return math.Inf(1)
	}
	hi := 1.0
	for stats.StudentTTwoSidedP(hi, df) > eps {
		hi *= 2
		if hi > 1e9 {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if stats.StudentTTwoSidedP(mid, df) <= eps {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// ---------------------------------------------------------------------------
// Dissimilarity metrics. Their gates pass on large composition differences,
// so their windows EXCLUDE a band of partners too close to the probe.
// ---------------------------------------------------------------------------

// Bounds implements PrunableMetric exactly: the z-test score is a function of
// the four counts the summaries carry, so this replays the gate itself.
func (ZScoreDissimilarity) Bounds(a, b *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) bool {
	score := stats.TwoProportionZ(a.Protected, a.N, b.Protected, b.N).P
	return !ZScoreDissimilarity{}.Pass(score, threshold)
}

// PruneWindow implements PrunableMetric conservatively. For the pair to pass,
// |z| must reach the critical value at delta, and
//
//	|share_a - share_b| = |z| * se(pooled)  with  se = sqrt(pq*(1/n1+1/n2))
//
// so a passing pair's share gap is at least zCrit * seMin, where seMin
// under-estimates se over ALL possible partners: pq is minimized at the
// extreme pooled proportions a partner of size <= MaxN can produce (p(1-p)
// is concave, so the minimum over the feasible pooled-p interval sits at an
// endpoint), and 1/n2 is minimized at n2 = MaxN. Partners with a smaller
// share gap are guaranteed rejects.
func (ZScoreDissimilarity) PruneWindow(probe *partition.RegionSummary, threshold float64, env *partition.SummaryStats) (PruneWindow, bool) {
	if probe.N <= 0 || env.MaxN <= 0 {
		return PruneWindow{}, false
	}
	maxN := float64(env.MaxN)
	n1 := float64(probe.N)
	k1 := float64(probe.Protected)
	pLo := k1 / (n1 + maxN)
	pHi := (k1 + maxN) / (n1 + maxN)
	minPQ := math.Min(pLo*(1-pLo), pHi*(1-pHi))
	if minPQ <= 0 {
		// The pooled proportion can degenerate to 0 or 1, where the gate's
		// se is zero and any gap is "significant"; no sound gap bound exists.
		return PruneWindow{}, false
	}
	gap := conservativeZCrit(threshold) * math.Sqrt(minPQ*(1/n1+1/maxN))
	if !(gap > 0) {
		return PruneWindow{}, false
	}
	s := probe.ProtectedShare
	return excludeBand(PruneProtectedShare, s-gap, s+gap), true
}

// Bounds implements PrunableMetric exactly: the parity gap is a function of
// the shares the summaries carry.
func (StatParityDissimilarity) Bounds(a, b *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) bool {
	score := math.NaN()
	if a.N > 0 && b.N > 0 {
		score = math.Abs(a.ProtectedShare - b.ProtectedShare)
	}
	return !StatParityDissimilarity{}.Pass(score, threshold)
}

// PruneWindow implements PrunableMetric exactly: the gate passes iff
// |share_a - share_b| >= threshold, so partners strictly inside the
// threshold-wide band around the probe's share are rejects.
func (StatParityDissimilarity) PruneWindow(probe *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) (PruneWindow, bool) {
	if probe.N <= 0 || threshold <= 0 {
		return PruneWindow{}, false
	}
	s := probe.ProtectedShare
	return excludeBand(PruneProtectedShare, s-threshold, s+threshold), true
}

// Bounds implements PrunableMetric exactly: the impact ratio is a function of
// the shares the summaries carry.
func (DisparateImpactDissimilarity) Bounds(a, b *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) bool {
	score := math.NaN()
	if a.N > 0 && b.N > 0 {
		hi := math.Max(a.ProtectedShare, b.ProtectedShare)
		if hi == 0 { //lint:floateq-ok zero-share-sentinel
			score = 1
		} else {
			score = math.Min(a.ProtectedShare, b.ProtectedShare) / hi
		}
	}
	return !DisparateImpactDissimilarity{}.Pass(score, threshold)
}

// PruneWindow implements PrunableMetric exactly for thresholds in (0, 1) and
// probes with positive share: min/max <= t excludes partner shares strictly
// between t*s and s/t. Probes with zero share score 1 against zero-share
// partners and 0 otherwise — not an interval — and t >= 1 admits everything,
// so both fall back to a full scan.
func (DisparateImpactDissimilarity) PruneWindow(probe *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) (PruneWindow, bool) {
	if probe.N <= 0 || threshold <= 0 || threshold >= 1 || probe.ProtectedShare <= 0 {
		return PruneWindow{}, false
	}
	s := probe.ProtectedShare
	return excludeBand(PruneProtectedShare, threshold*s, s/threshold), true
}

// ---------------------------------------------------------------------------
// Similarity metrics. Their gates pass on SMALL differences, so their
// windows INCLUDE an interval of partners near the probe.
// ---------------------------------------------------------------------------

// Bounds implements PrunableMetric exactly: the relative mean gap is a
// function of the sample means the summaries carry.
func (MeanGapSimilarity) Bounds(a, b *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) bool {
	score := math.NaN()
	if !math.IsNaN(a.IncomeMean) && !math.IsNaN(b.IncomeMean) {
		if den := math.Max(a.IncomeMean, b.IncomeMean); den > 0 {
			score = math.Abs(a.IncomeMean-b.IncomeMean) / den
		}
	}
	return !MeanGapSimilarity{}.Pass(score, threshold)
}

// PruneWindow implements PrunableMetric exactly for thresholds in (0, 1):
// |m_a - m_b| / max(m_a, m_b) <= t confines the partner mean to
// [m*(1-t), m/(1-t)]. Probes with a NaN or non-positive mean can never pass
// (the score is NaN whenever the larger mean is not positive), so their
// window is empty; t >= 1 is not an interval constraint and falls back.
func (MeanGapSimilarity) PruneWindow(probe *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) (PruneWindow, bool) {
	if threshold >= 1 {
		return PruneWindow{}, false
	}
	m := probe.IncomeMean
	if math.IsNaN(m) || m <= 0 {
		return emptyWindow(PruneIncomeMean), true
	}
	if threshold < 0 {
		threshold = 0
	}
	return includeInterval(PruneIncomeMean, m*(1-threshold), m/(1-threshold)), true
}

// Bounds implements PrunableMetric exactly: the summaries carry the same
// (size, mean, variance) triple the prepared Welch metric scores from.
func (WelchTSimilarity) Bounds(a, b *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) bool {
	score := stats.WelchTFromMoments(
		a.SampleN, a.IncomeMean, a.IncomeVariance,
		b.SampleN, b.IncomeMean, b.IncomeVariance).P
	return !WelchTSimilarity{}.Pass(score, threshold)
}

// PruneWindow implements PrunableMetric conservatively. A passing pair has
// p = StudentTTwoSidedP(t, df) >= eps with
//
//	|t| = |m_a - m_b| / se,  se = sqrt(v_a/n_a + v_b/n_b)
//
// so |m_a - m_b| = |t| * se <= tCrit(eps, dfLo) * seMax, where seMax bounds
// se over all partners via the envelope's MaxMeanSE2, and dfLo =
// min(n_a, MinSampleN) - 1 under-estimates the Welch–Satterthwaite df (which
// is always >= min(n_a, n_b) - 1); the t tail's p-value grows with smaller
// df at fixed |t|, so a smaller df over-estimates the passing |t| range.
// Partners with means outside the widened interval are guaranteed rejects.
// Probes whose own sample is too small for a variance can never pass and get
// the empty window.
func (WelchTSimilarity) PruneWindow(probe *partition.RegionSummary, threshold float64, env *partition.SummaryStats) (PruneWindow, bool) {
	if probe.SampleN < 2 || math.IsNaN(probe.IncomeVariance) {
		return emptyWindow(PruneIncomeMean), true
	}
	dfLoN := probe.SampleN
	if env.MinSampleN >= 2 && env.MinSampleN < dfLoN {
		dfLoN = env.MinSampleN
	}
	tCrit := conservativeTCrit(threshold, float64(dfLoN-1))
	if math.IsInf(tCrit, 1) {
		return PruneWindow{}, false
	}
	seMax := math.Sqrt(probe.IncomeVariance/float64(probe.SampleN) + env.MaxMeanSE2)
	width := tCrit * seMax
	if math.IsNaN(width) || math.IsInf(width, 0) {
		return PruneWindow{}, false
	}
	m := probe.IncomeMean
	return includeInterval(PruneIncomeMean, m-width, m+width), true
}

// Bounds implements PrunableMetric conservatively: the U test's p-value
// depends on the full samples, but when the two income ranges are disjoint
// the statistic is pinned at its extreme and MannWhitneySeparatedP(n1, n2)
// upper-bounds the pair's p-value (internal ties only push it lower). If even
// that upper bound misses the threshold, the pair is a guaranteed reject —
// as is any pair with an empty sample, whose score is NaN.
func (MannWhitneySimilarity) Bounds(a, b *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) bool {
	if a.SampleN == 0 || b.SampleN == 0 {
		return true
	}
	if a.IncomeMax < b.IncomeMin || b.IncomeMax < a.IncomeMin {
		return stats.MannWhitneySeparatedP(a.SampleN, b.SampleN) < threshold
	}
	return false
}

// PruneWindow implements PrunableMetric: the rank test's pass set is not an
// interval over any single summary key, so the metric offers no window and
// pruning relies on Bounds alone.
func (MannWhitneySimilarity) PruneWindow(*partition.RegionSummary, float64, *partition.SummaryStats) (PruneWindow, bool) {
	return PruneWindow{}, false
}

// Bounds implements PrunableMetric conservatively: disjoint income ranges
// force the KS statistic to exactly 1, where the p-value is
// KolmogorovSmirnovSeparatedP(n1, n2) — exact in that branch, so rejecting
// when it misses the threshold is sound. Pairs with an empty sample score
// NaN and are guaranteed rejects.
func (KolmogorovSmirnovSimilarity) Bounds(a, b *partition.RegionSummary, threshold float64, _ *partition.SummaryStats) bool {
	if a.SampleN == 0 || b.SampleN == 0 {
		return true
	}
	if a.IncomeMax < b.IncomeMin || b.IncomeMax < a.IncomeMin {
		return stats.KolmogorovSmirnovSeparatedP(a.SampleN, b.SampleN) < threshold
	}
	return false
}

// PruneWindow implements PrunableMetric: like Mann–Whitney, the KS pass set
// is not a 1-D interval; no window.
func (KolmogorovSmirnovSimilarity) PruneWindow(*partition.RegionSummary, float64, *partition.SummaryStats) (PruneWindow, bool) {
	return PruneWindow{}, false
}
