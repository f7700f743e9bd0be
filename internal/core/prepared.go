package core

import (
	"math"

	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// PreparedRegion is opaque per-(metric, region) state built once per audit by
// a PreparedMetric and handed back to its ScorePrepared for every pair the
// region participates in. The audit engine never inspects it.
type PreparedRegion any

// Scratch is per-worker scratch space threaded through ScorePrepared so
// metrics that need a temporary buffer can reuse one allocation across the
// whole pair sweep instead of allocating per pair. The built-in metrics score
// directly against their caches and never touch it; the engine itself uses
// it for Monte-Carlo null samples its null store cannot keep. A Scratch is
// not safe for concurrent use — the audit gives each worker its own.
type Scratch struct {
	buf []float64
}

// PreparedMetric is an optional extension of PairMetric for metrics whose
// pair score can be split into per-region precomputation and a cheap pair
// combination. The audit engine detects it with a type assertion: when a
// gate's metric implements PreparedMetric, the audit runs PrepareRegion once
// per eligible region (in a parallel precompute phase, before any pair is
// scored) and scores every pair with ScorePrepared against the two cached
// states. Metrics that do not implement it fall back to Score per pair.
//
// The contract mirrors Score exactly: for every pair of regions,
//
//	ScorePrepared(PrepareRegion(a), PrepareRegion(b), scratch) == Score(a, b)
//
// bit for bit — the audit's determinism battery holds across both paths, so
// a prepared metric that drifts from its Score would make results depend on
// whether the cache was used. PrepareRegion may allocate (it runs O(regions)
// times); ScorePrepared runs O(regions²) times and must not allocate — the
// steady-state pair loop's zero-allocation guarantee
// (TestAuditPairKernelZeroAlloc) covers it for the built-in metrics.
// ScorePrepared must be safe for concurrent calls with distinct Scratches;
// PrepareRegion is called once per region, each from a single goroutine.
type PreparedMetric interface {
	PairMetric
	// PrepareRegion builds the per-region cache consumed by ScorePrepared.
	PrepareRegion(r *partition.Region) PreparedRegion
	// ScorePrepared returns the same value Score would for the pair whose
	// prepared states are a and b.
	ScorePrepared(a, b PreparedRegion, sc *Scratch) float64
}

// --- Rank-cache scorers for the sample-based similarity metrics ------------

// PrepareRegion implements PreparedMetric: the cache is the region's income
// sample sorted ascending (computed once per region by the partition layer),
// letting ScorePrepared rank a pair by merging two sorted samples in
// O(n_a+n_b) instead of concatenating and sorting per pair.
func (MannWhitneySimilarity) PrepareRegion(r *partition.Region) PreparedRegion {
	return r.SortedIncomeSample()
}

// ScorePrepared implements PreparedMetric via the merge-rank Mann–Whitney
// kernel; bit-identical to Score.
//
//lint:hotpath
func (MannWhitneySimilarity) ScorePrepared(a, b PreparedRegion, _ *Scratch) float64 {
	return stats.MannWhitneyUSorted(a.([]float64), b.([]float64)).P
}

// PrepareRegion implements PreparedMetric: the cache is the sorted income
// sample, shared in kind with MannWhitneySimilarity.
func (KolmogorovSmirnovSimilarity) PrepareRegion(r *partition.Region) PreparedRegion {
	return r.SortedIncomeSample()
}

// ScorePrepared implements PreparedMetric via the two-sorted-sample KS merge;
// bit-identical to Score.
//
//lint:hotpath
func (KolmogorovSmirnovSimilarity) ScorePrepared(a, b PreparedRegion, _ *Scratch) float64 {
	return stats.KolmogorovSmirnovSorted(a.([]float64), b.([]float64)).P
}

// --- Moment-cache scorers for the parametric similarity metrics ------------

// sampleMoments caches the sufficient statistics of one region's income
// sample for the parametric similarity metrics: size, mean, and unbiased
// sample variance (NaN where undefined, matching the raw-sample functions).
type sampleMoments struct {
	n        int
	mean     float64
	variance float64
}

func sampleMomentsOf(r *partition.Region) sampleMoments {
	sample := r.IncomeSample()
	return sampleMoments{
		n:        len(sample),
		mean:     stats.Mean(sample),
		variance: stats.SampleVariance(sample),
	}
}

func incomeMoments(r *partition.Region) *sampleMoments {
	m := sampleMomentsOf(r)
	return &m
}

// PrepareRegion implements PreparedMetric: the cache is the sample's size,
// mean, and variance — all Welch's t-test consumes.
func (WelchTSimilarity) PrepareRegion(r *partition.Region) PreparedRegion {
	return incomeMoments(r)
}

// ScorePrepared implements PreparedMetric via WelchTFromMoments;
// bit-identical to Score.
//
//lint:hotpath
func (WelchTSimilarity) ScorePrepared(a, b PreparedRegion, _ *Scratch) float64 {
	ma, mb := a.(*sampleMoments), b.(*sampleMoments)
	return stats.WelchTFromMoments(ma.n, ma.mean, ma.variance, mb.n, mb.mean, mb.variance).P
}

// PrepareRegion implements PreparedMetric: the cache is the sample mean.
func (MeanGapSimilarity) PrepareRegion(r *partition.Region) PreparedRegion {
	return stats.Mean(r.IncomeSample())
}

// ScorePrepared implements PreparedMetric; bit-identical to Score.
//
//lint:hotpath
func (MeanGapSimilarity) ScorePrepared(a, b PreparedRegion, _ *Scratch) float64 {
	return meanGapFromMeans(a.(float64), b.(float64))
}

// meanGapFromMeans is MeanGapSimilarity's score on cached sample means — the
// single arithmetic shared by ScorePrepared and the SoA dispatch, so the two
// paths cannot drift.
//
//lint:hotpath
func meanGapFromMeans(ma, mb float64) float64 {
	if math.IsNaN(ma) || math.IsNaN(mb) {
		return math.NaN()
	}
	den := math.Max(ma, mb)
	if den <= 0 {
		return math.NaN()
	}
	return math.Abs(ma-mb) / den
}

// --- Share-cache scorers for the dissimilarity metrics ---------------------

// groupCounts caches one region's protected-group count and population for
// the z-test dissimilarity gate.
type groupCounts struct {
	protected, n int
}

// PrepareRegion implements PreparedMetric: the cache is the protected count
// and population the z-test consumes.
func (ZScoreDissimilarity) PrepareRegion(r *partition.Region) PreparedRegion {
	return groupCounts{protected: r.Protected, n: r.N}
}

// ScorePrepared implements PreparedMetric; bit-identical to Score.
//
//lint:hotpath
func (ZScoreDissimilarity) ScorePrepared(a, b PreparedRegion, _ *Scratch) float64 {
	ga, gb := a.(groupCounts), b.(groupCounts)
	return stats.TwoProportionZ(ga.protected, ga.n, gb.protected, gb.n).P
}

// preparedShare caches a region's protected share for the share-based
// dissimilarity metrics; NaN marks an empty (non-comparable) region.
func preparedShare(r *partition.Region) float64 {
	if r.N == 0 {
		return math.NaN()
	}
	return r.ProtectedShare()
}

// PrepareRegion implements PreparedMetric: the cache is the protected share.
func (StatParityDissimilarity) PrepareRegion(r *partition.Region) PreparedRegion {
	return preparedShare(r)
}

// ScorePrepared implements PreparedMetric; bit-identical to Score (NaN
// shares propagate through the subtraction).
//
//lint:hotpath
func (StatParityDissimilarity) ScorePrepared(a, b PreparedRegion, _ *Scratch) float64 {
	return math.Abs(a.(float64) - b.(float64))
}

// PrepareRegion implements PreparedMetric: the cache is the protected share.
func (DisparateImpactDissimilarity) PrepareRegion(r *partition.Region) PreparedRegion {
	return preparedShare(r)
}

// ScorePrepared implements PreparedMetric; bit-identical to Score.
//
//lint:hotpath
func (DisparateImpactDissimilarity) ScorePrepared(a, b PreparedRegion, _ *Scratch) float64 {
	return disparateImpactFromShares(a.(float64), b.(float64))
}

// disparateImpactFromShares is DisparateImpactDissimilarity's score on cached
// protected shares, shared by ScorePrepared and the SoA dispatch.
//
//lint:hotpath
func disparateImpactFromShares(sa, sb float64) float64 {
	if math.IsNaN(sa) || math.IsNaN(sb) {
		return math.NaN()
	}
	hi := math.Max(sa, sb)
	if hi == 0 { //lint:floateq-ok zero-share-sentinel
		return 1 // both shares zero: identical composition
	}
	return math.Min(sa, sb) / hi
}

// --- Audit-side glue -------------------------------------------------------

// metricKind selects a gate metric's scoring path. The built-in metrics get
// structure-of-arrays (SoA) fast paths: their per-region state lives in flat
// parallel slices indexed by eligible position, backed by shared arenas, so
// the row-major pair sweep walks contiguous memory instead of chasing
// per-region boxed interface values. Custom PreparedMetric implementations
// keep the boxed path (kindGeneric); metrics without a prepared form fall
// back to per-pair Score (kindScoreOnly).
type metricKind uint8

const (
	kindScoreOnly metricKind = iota
	kindGeneric
	kindMannWhitney
	kindKolmogorovSmirnov
	kindWelch
	kindMeanGap
	kindZScore
	kindStatParity
	kindDisparateImpact
)

// metricKindOf classifies a gate metric. Wrapped or user-defined metrics
// never match a built-in case, so wrappers like the tests' unpreparedMetric
// land on the generic or score-only path as before.
func metricKindOf(m PairMetric) metricKind {
	switch m.(type) {
	case MannWhitneySimilarity, *MannWhitneySimilarity:
		return kindMannWhitney
	case KolmogorovSmirnovSimilarity, *KolmogorovSmirnovSimilarity:
		return kindKolmogorovSmirnov
	case WelchTSimilarity, *WelchTSimilarity:
		return kindWelch
	case MeanGapSimilarity, *MeanGapSimilarity:
		return kindMeanGap
	case ZScoreDissimilarity, *ZScoreDissimilarity:
		return kindZScore
	case StatParityDissimilarity, *StatParityDissimilarity:
		return kindStatParity
	case DisparateImpactDissimilarity, *DisparateImpactDissimilarity:
		return kindDisparateImpact
	}
	if _, ok := m.(PreparedMetric); ok {
		return kindGeneric
	}
	return kindScoreOnly
}

// rankPreBudgetBytes caps the total size of the Mann–Whitney prefix-count
// arena: the grid's bucket count halves until R*(buckets+1) int32s fit, so
// very large region universes trade probe sharpness for bounded memory
// (correctness is grid-independent; only the spill-loop rate changes).
const rankPreBudgetBytes = 64 << 20

func rankBucketsFor(regions int) int {
	b := stats.RankGridBuckets
	for b > 64 && regions*(b+1)*4 > rankPreBudgetBytes {
		b >>= 1
	}
	return b
}

// soaState is the flat per-region state behind the built-in metrics' SoA
// scoring paths. Exactly one family of fields is populated, per the owning
// scorer's kind. Slices are indexed by eligible position; the sample-backed
// families view into shared arenas laid out by beginPrepare.
//
// Layout invariants the delta auditor relies on (see repair):
//   - samples[i] always holds region i's CURRENT sorted income sample; after
//     a same-length repair it stays an arena view, after a length-changing
//     repair it may become a standalone slice (views are three-index sliced,
//     so regrowing one region can never clobber a neighbor's segment).
//   - The rank grid is fixed for the scorer's lifetime. Repaired values
//     outside its span clamp into the edge buckets, which keeps the bucket
//     map monotone — the only property the cross-rank kernels need.
type soaState struct {
	// Sample-backed metrics (Mann–Whitney, Kolmogorov–Smirnov).
	samples     [][]float64
	sampleArena []float64
	distinct    []bool // Kolmogorov–Smirnov: per-region strictly-increasing flag

	// Mann–Whitney rank-index state (see stats/rankindex.go).
	grid      stats.RankGrid
	gridOK    bool
	ranked    []stats.RankedSample
	keyArena  []uint64
	bukArena  []int32
	preArena  []int32
	preCArena []int32

	// Scalar-state metrics.
	moments []sampleMoments // Welch
	means   []float64       // MeanGap
	counts  []groupCounts   // ZScore
	shares  []float64       // StatParity, DisparateImpact
}

// preparedScorer binds one gate's metric and threshold to its scoring path:
// an SoA fast path for the built-in metrics, the boxed PreparedRegion path
// for custom PreparedMetric implementations, or the generic per-pair Score
// fallback. All per-region state is indexed by position in the audit's
// eligible-region list. The lifecycle is beginPrepare (layout) → prepare per
// region (fill, concurrency-safe across distinct positions).
type preparedScorer struct {
	metric    PairMetric
	prepared  PreparedMetric // non-nil on the prepared paths (generic or SoA)
	kind      metricKind
	threshold float64
	state     []PreparedRegion // kindGeneric only
	soa       soaState

	// The verified |z| bands that replay Pass(score, threshold) without the
	// erfc (see stats.TwoSidedPGate / stats.TwoSidedPGEGate): zBand for
	// kindZScore (p <= threshold), pBand for kindMannWhitney
	// (p >= threshold).
	zBand stats.TwoSidedPGate
	pBand stats.TwoSidedPGEGate
}

func newPreparedScorer(m PairMetric, threshold float64) preparedScorer {
	ps := preparedScorer{metric: m, kind: metricKindOf(m), threshold: threshold}
	if pm, ok := m.(PreparedMetric); ok {
		ps.prepared = pm
	}
	switch ps.kind {
	case kindZScore:
		ps.zBand = stats.NewTwoSidedPGate(threshold)
	case kindMannWhitney:
		ps.pBand = stats.NewTwoSidedPGEGate(threshold)
	}
	return ps
}

// needsPrepare reports whether the scorer has a precompute phase at all.
func (ps *preparedScorer) needsPrepare() bool { return ps.kind != kindScoreOnly }

// beginPrepare sizes the SoA slices and arenas for the eligible set and fixes
// the per-region arena offsets, so concurrent prepare calls write to disjoint
// preassigned segments. It must run before any prepare call.
func (ps *preparedScorer) beginPrepare(regions []*partition.Region) {
	n := len(regions)
	switch ps.kind {
	case kindMannWhitney, kindKolmogorovSmirnov:
		total := 0
		for _, r := range regions {
			total += len(r.IncomeSample())
		}
		ps.soa.samples = growSlice(ps.soa.samples, n)
		ps.soa.sampleArena = growSlice(ps.soa.sampleArena, total)
		off := 0
		for i, r := range regions {
			sz := len(r.IncomeSample())
			ps.soa.samples[i] = ps.soa.sampleArena[off : off+sz : off+sz]
			off += sz
		}
		if ps.kind == kindMannWhitney {
			ps.soa.layoutRankIndex(regions, total)
		} else {
			ps.soa.distinct = growSlice(ps.soa.distinct, n)
		}
	case kindWelch:
		ps.soa.moments = growSlice(ps.soa.moments, n)
	case kindMeanGap:
		ps.soa.means = growSlice(ps.soa.means, n)
	case kindZScore:
		ps.soa.counts = growSlice(ps.soa.counts, n)
	case kindStatParity, kindDisparateImpact:
		ps.soa.shares = growSlice(ps.soa.shares, n)
	case kindGeneric:
		ps.state = growSlice(ps.state, n)
	}
}

// layoutRankIndex builds the shared value grid over every region's raw
// sample and carves the rank-index arenas into per-region views. A degenerate
// span (all values equal, or non-finite) leaves gridOK false and the scorer
// on the merge kernel.
func (s *soaState) layoutRankIndex(regions []*partition.Region, total int) {
	n := len(regions)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range regions {
		for _, v := range r.IncomeSample() {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	buckets := rankBucketsFor(n)
	s.grid, s.gridOK = stats.NewRankGrid(lo, hi, buckets)
	if !s.gridOK {
		return
	}
	groups := stats.CoarseGroups(buckets)
	s.ranked = growSlice(s.ranked, n)
	s.keyArena = growSlice(s.keyArena, total+2*n)
	s.bukArena = growSlice(s.bukArena, total)
	s.preArena = growSlice(s.preArena, n*(buckets+1))
	s.preCArena = growSlice(s.preCArena, n*(groups+1))
	off, koff := 0, 0
	for i, r := range regions {
		sz := len(r.IncomeSample())
		s.ranked[i] = stats.RankedSample{
			Keys: s.keyArena[koff : koff+sz+2 : koff+sz+2],
			Buk:  s.bukArena[off : off+sz : off+sz],
			Pre:  s.preArena[i*(buckets+1) : (i+1)*(buckets+1) : (i+1)*(buckets+1)],
			PreC: s.preCArena[i*(groups+1) : (i+1)*(groups+1) : (i+1)*(groups+1)],
		}
		off += sz
		koff += sz + 2
	}
}

// growSlice returns a length-n slice, reusing s's backing array when it is
// large enough (arena pooling: a recycled runner's arenas are reused across
// audits instead of reallocated).
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepare builds the cache for the eligible region at position i; a no-op on
// the fallback path. Distinct positions may be prepared concurrently, after
// beginPrepare has fixed the layout.
func (ps *preparedScorer) prepare(i int, r *partition.Region) {
	switch ps.kind {
	case kindMannWhitney:
		view := ps.soa.samples[i]
		copy(view, r.SortedIncomeSample())
		if ps.soa.gridOK {
			stats.FillRankedSample(ps.soa.grid, view, &ps.soa.ranked[i])
		}
	case kindKolmogorovSmirnov:
		view := ps.soa.samples[i]
		copy(view, r.SortedIncomeSample())
		ps.soa.distinct[i] = stats.StrictlyIncreasing(view)
	case kindWelch:
		ps.soa.moments[i] = sampleMomentsOf(r)
	case kindMeanGap:
		ps.soa.means[i] = stats.Mean(r.IncomeSample())
	case kindZScore:
		ps.soa.counts[i] = groupCounts{protected: r.Protected, n: r.N}
	case kindStatParity, kindDisparateImpact:
		ps.soa.shares[i] = preparedShare(r)
	case kindGeneric:
		ps.state[i] = ps.prepared.PrepareRegion(r)
	}
}

// repair rebuilds position i's state after the delta auditor replaced or
// mutated its region in place. Same-length samples refill the arena views;
// length changes fall back to standalone slices for that region (three-index
// views make this safe).
func (ps *preparedScorer) repair(i int, r *partition.Region) {
	switch ps.kind {
	case kindMannWhitney, kindKolmogorovSmirnov:
		sorted := r.SortedIncomeSample()
		if cap(ps.soa.samples[i]) >= len(sorted) {
			ps.soa.samples[i] = ps.soa.samples[i][:len(sorted)]
		} else {
			ps.soa.samples[i] = make([]float64, len(sorted))
		}
		view := ps.soa.samples[i]
		copy(view, sorted)
		if ps.kind == kindKolmogorovSmirnov {
			ps.soa.distinct[i] = stats.StrictlyIncreasing(view)
		} else if ps.soa.gridOK {
			stats.FillRankedSample(ps.soa.grid, view, &ps.soa.ranked[i])
		}
	default:
		ps.prepare(i, r)
	}
}

// verdict decides the gate for the pair at eligible positions (i, j):
// whether Pass(score, threshold) holds, and the score itself when deciding
// needed it (scored). The z-test replays its threshold through the verified
// |z| band and Mann–Whitney brackets its |z| from prefix tables, so neither
// computes a score for a pair it settles; every other kind scores the pair.
// The verdict is always Pass's, bit for bit.
//
//lint:hotpath
func (ps *preparedScorer) verdict(i, j int, a, b *partition.Region, sc *Scratch) (pass bool, score float64, scored bool) {
	switch ps.kind {
	case kindZScore:
		ga, gb := ps.soa.counts[i], ps.soa.counts[j]
		return ps.zBand.LE(stats.TwoProportionZStat(ga.protected, ga.n, gb.protected, gb.n)), 0, false
	case kindMannWhitney:
		if ps.soa.gridOK {
			if pass, decided := ps.soa.mannWhitneyBracket(i, j, &ps.pBand); decided {
				return pass, 0, false
			}
		}
	}
	score = ps.score(i, j, a, b, sc)
	return ps.metric.Pass(score, ps.threshold), score, true
}

// mannWhitneyBracket tries to settle TwoSidedP(z) >= threshold for a
// Mann–Whitney pair from bounds alone: the coarse digest bracket first, the
// per-element bucket bracket when that one touches the band's guard region,
// each mapped to a |z| interval by stats.MannWhitneyAbsZRange. decided is
// false when neither interval settles the comparison.
//
//lint:hotpath
func (s *soaState) mannWhitneyBracket(i, j int, band *stats.TwoSidedPGEGate) (pass, decided bool) {
	ra, rb := &s.ranked[i], &s.ranked[j]
	lo, hi := stats.CrossBoundsCoarse(ra, rb)
	if azMin, azMax, ok := stats.MannWhitneyAbsZRange(lo, hi, ra, rb); ok {
		if pass, decided = band.DecideRange(azMin, azMax); decided {
			return pass, true
		}
	}
	lo, hi = stats.CrossBounds(ra, rb)
	if azMin, azMax, ok := stats.MannWhitneyAbsZRange(lo, hi, ra, rb); ok {
		return band.DecideRange(azMin, azMax)
	}
	return false, false
}

// score returns the metric's value for the pair at eligible positions (i, j)
// backed by regions (a, b). The SoA paths read only the flat slices; every
// branch is allocation-free (TestAuditPairKernelZeroAlloc pins it).
//
//lint:hotpath
func (ps *preparedScorer) score(i, j int, a, b *partition.Region, sc *Scratch) float64 {
	switch ps.kind {
	case kindMannWhitney:
		return ps.soa.mannWhitneyP(i, j)
	case kindKolmogorovSmirnov:
		xs, ys := ps.soa.samples[i], ps.soa.samples[j]
		if ps.soa.distinct[i] && ps.soa.distinct[j] {
			if res, ok := stats.KolmogorovSmirnovSortedNoTies(xs, ys); ok {
				return res.P
			}
		}
		return stats.KolmogorovSmirnovSorted(xs, ys).P
	case kindWelch:
		ma, mb := &ps.soa.moments[i], &ps.soa.moments[j]
		return stats.WelchTFromMoments(ma.n, ma.mean, ma.variance, mb.n, mb.mean, mb.variance).P
	case kindMeanGap:
		return meanGapFromMeans(ps.soa.means[i], ps.soa.means[j])
	case kindZScore:
		ga, gb := ps.soa.counts[i], ps.soa.counts[j]
		return stats.TwoProportionZ(ga.protected, ga.n, gb.protected, gb.n).P
	case kindStatParity:
		return math.Abs(ps.soa.shares[i] - ps.soa.shares[j])
	case kindDisparateImpact:
		return disparateImpactFromShares(ps.soa.shares[i], ps.soa.shares[j])
	case kindGeneric:
		return ps.prepared.ScorePrepared(ps.state[i], ps.state[j], sc)
	}
	return ps.metric.Score(a, b) //lint:hotpathalloc-ok cold fallback for metrics without a prepared form
}

// mannWhitneyP is the Mann–Whitney p-value of a pair: the exact bucketed
// kernel when the rank grid exists and its sums stay exact, the merge
// otherwise — bit-identical either way.
//
//lint:hotpath
func (s *soaState) mannWhitneyP(i, j int) float64 {
	if s.gridOK {
		ra, rb := &s.ranked[i], &s.ranked[j]
		twoU, ties := stats.CrossCount(ra, rb)
		if res, ok := stats.MannWhitneyFromCross(twoU, ties, ra.N, rb.N); ok {
			return res.P
		}
	}
	return stats.MannWhitneyUSorted(s.samples[i], s.samples[j]).P
}
