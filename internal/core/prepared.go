package core

import (
	"math"

	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// scratch is per-worker scratch space for the pair sweep: the Monte-Carlo
// null fills' samplers and log tables, and the samples the null store cannot
// keep. The gate scorers read only their prepared caches and never touch it.
// A scratch is not safe for concurrent use — the audit gives each worker its
// own.
type scratch struct {
	null stats.NullScratch
}

// --- Per-region caches and the formulas shared with Score -----------------

// sampleMoments caches the sufficient statistics of one region's income
// sample for Welch's t-test: size, mean, and unbiased sample variance (NaN
// where undefined, matching the raw-sample functions).
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

// meanGapFromMeans is MeanGapSimilarity's score on sample means — the single
// arithmetic shared by Score and the SoA dispatch, so the two paths cannot
// drift.
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

// groupCounts caches one region's protected-group count and population for
// the z-test dissimilarity gate.
type groupCounts struct {
	protected, n int
}

// preparedShare is a region's protected share for the share-based
// dissimilarity metrics; NaN marks an empty (non-comparable) region, and it
// propagates through both metrics' formulas.
func preparedShare(r *partition.Region) float64 {
	if r.N == 0 {
		return math.NaN()
	}
	return r.ProtectedShare()
}

// disparateImpactFromShares is DisparateImpactDissimilarity's score on
// protected shares, shared by Score and the SoA dispatch.
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

// metricKind selects a gate metric's scoring path. Each built-in metric has
// a structure-of-arrays (SoA) kind: its per-region state lives in flat
// parallel slices indexed by eligible position, backed by shared arenas, so
// the row-major pair sweep walks contiguous memory. Every other metric is
// scored per pair through PairMetric.Score (kindScoreOnly).
type metricKind uint8

const (
	kindScoreOnly metricKind = iota
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
// land on the score-only path.
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
// an SoA kind for a built-in metric, per-pair Score for any other. All
// per-region state is indexed by position in the audit's eligible-region
// list. The lifecycle is beginPrepare (layout) → prepare per region (fill,
// concurrency-safe across distinct positions).
type preparedScorer struct {
	metric    PairMetric
	kind      metricKind
	threshold float64
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
		ps.soa.samples = make([][]float64, n)
		ps.soa.sampleArena = make([]float64, total)
		off := 0
		for i, r := range regions {
			sz := len(r.IncomeSample())
			ps.soa.samples[i] = ps.soa.sampleArena[off : off+sz : off+sz]
			off += sz
		}
		if ps.kind == kindMannWhitney {
			ps.soa.layoutRankIndex(regions, total)
		}
	case kindWelch:
		ps.soa.moments = make([]sampleMoments, n)
	case kindMeanGap:
		ps.soa.means = make([]float64, n)
	case kindZScore:
		ps.soa.counts = make([]groupCounts, n)
	case kindStatParity, kindDisparateImpact:
		ps.soa.shares = make([]float64, n)
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
	s.ranked = make([]stats.RankedSample, n)
	s.keyArena = make([]uint64, total+2*n)
	s.bukArena = make([]int32, total)
	s.preArena = make([]int32, n*(buckets+1))
	s.preCArena = make([]int32, n*(groups+1))
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
		copy(ps.soa.samples[i], r.SortedIncomeSample())
	case kindWelch:
		ps.soa.moments[i] = sampleMomentsOf(r)
	case kindMeanGap:
		ps.soa.means[i] = stats.Mean(r.IncomeSample())
	case kindZScore:
		ps.soa.counts[i] = groupCounts{protected: r.Protected, n: r.N}
	case kindStatParity, kindDisparateImpact:
		ps.soa.shares[i] = preparedShare(r)
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
		if ps.kind == kindMannWhitney && ps.soa.gridOK {
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
func (ps *preparedScorer) verdict(i, j int, a, b *partition.Region) (pass bool, score float64, scored bool) {
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
	score = ps.score(i, j, a, b)
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
// backed by regions (a, b). The SoA kinds read only the flat slices and are
// allocation-free (TestAuditPairKernelZeroAlloc pins it); each is
// bit-identical to the metric's Score (TestFastPathMatchesExact pins it).
//
//lint:hotpath
func (ps *preparedScorer) score(i, j int, a, b *partition.Region) float64 {
	switch ps.kind {
	case kindMannWhitney:
		return ps.soa.mannWhitneyP(i, j)
	case kindKolmogorovSmirnov:
		return stats.KolmogorovSmirnovSorted(ps.soa.samples[i], ps.soa.samples[j]).P
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
	}
	return ps.metric.Score(a, b) //lint:hotpathalloc-ok cold fallback for metrics without an SoA kind
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
