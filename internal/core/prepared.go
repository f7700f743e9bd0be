package core

import (
	"math"

	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// scratch is per-worker scratch space for the pair sweep: the Monte-Carlo
// null fills' samplers and log tables, and the Mann–Whitney probe's fine
// prefix table. A scratch is not safe for concurrent use — the audit gives
// each worker its own — and its table must not outlive a repair of the
// region it describes: the delta auditor drops it at every pass.
type scratch struct {
	null stats.NullScratch

	// probeSecond reports that the caller pairs its probe row as the second
	// position of auditPair, as delta rescoring does for a partner below
	// the probe; the Mann–Whitney kernels then run from the probe's side and
	// mirror the result (see soaState.crossBounds).
	probeSecond bool

	// table holds the fine prefix table of region tablePos under the
	// scorer state tableOwner: built on the first pair of a probe row that
	// needs the fine bracket or the exact kernel, reused for the rest of it.
	table      []int32
	tableOwner *soaState
	tablePos   int
}

// prefixTable returns the fine prefix table of the region at position pos
// of s, building it into the scratch's buffer unless the buffer holds it
// already.
//
//lint:hotpath
func (sc *scratch) prefixTable(s *soaState, pos int) []int32 {
	if sc.tableOwner != s || sc.tablePos != pos {
		sc.table = stats.FillPrefixTable(s.grid, &s.ranked[pos], sc.table)
		sc.tableOwner, sc.tablePos = s, pos
	}
	return sc.table
}

// dropTable forgets which region the table describes, keeping its buffer.
func (sc *scratch) dropTable() { sc.tableOwner = nil }

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

// soaState is the flat per-region state behind the built-in metrics' SoA
// scoring paths. Exactly one family of fields is populated, per the owning
// scorer's kind. Slices are indexed by eligible position; the Mann–Whitney
// rank index views into shared arenas laid out by beginPrepare, O(total
// sample + R·65) in all: the fine prefix table is built per probe row, in
// the sweep worker's scratch.
//
// Layout invariants the delta auditor relies on (see prepare):
//   - samples[i] is region i's CURRENT sorted income sample itself, not a
//     copy: a region's sample is never written in place, only replaced (by
//     partition's aggregation and DeltaPartitioning's refresh), so the alias
//     stays valid until prepare re-reads it.
//   - ranked[i] stays an arena view while a repair does not lengthen its
//     sample; a longer one gets standalone slices (views are three-index
//     sliced, so regrowing one region can never clobber a neighbor's
//     segment).
//   - The rank grid is fixed for the scorer's lifetime. Repaired values
//     outside its span clamp into the edge buckets, which keeps the bucket
//     map monotone — the only property the cross-rank kernels need.
type soaState struct {
	// Sample-backed metrics (Mann–Whitney, Kolmogorov–Smirnov).
	samples [][]float64

	// Mann–Whitney rank-index state (see stats/rankindex.go).
	grid      stats.RankGrid
	gridOK    bool
	ranked    []stats.RankedSample
	keyArena  []uint64
	bukArena  []int32
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
// concurrency-safe across distinct positions), and prepare again for a
// region the delta auditor repaired.
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
		ps.soa.samples = make([][]float64, n)
		if ps.kind == kindMannWhitney {
			ps.soa.layoutRankIndex(regions)
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
func (s *soaState) layoutRankIndex(regions []*partition.Region) {
	n := len(regions)
	total := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range regions {
		sample := r.IncomeSample()
		total += len(sample)
		for _, v := range sample {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	s.grid, s.gridOK = stats.NewRankGrid(lo, hi, stats.RankGridBuckets)
	if !s.gridOK {
		return
	}
	groups := stats.CoarseGroups(stats.RankGridBuckets)
	s.ranked = make([]stats.RankedSample, n)
	s.keyArena = make([]uint64, total+2*n)
	s.bukArena = make([]int32, total)
	s.preCArena = make([]int32, n*(groups+1))
	off, koff := 0, 0
	for i, r := range regions {
		sz := len(r.IncomeSample())
		s.ranked[i] = stats.RankedSample{
			Keys: s.keyArena[koff : koff+sz+2 : koff+sz+2],
			Buk:  s.bukArena[off : off+sz : off+sz],
			PreC: s.preCArena[i*(groups+1) : (i+1)*(groups+1) : (i+1)*(groups+1)],
		}
		off += sz
		koff += sz + 2
	}
}

// prepare builds the cache for the eligible region at position i; a no-op on
// the fallback path. Distinct positions may be prepared concurrently, after
// beginPrepare has fixed the layout. The delta auditor calls it again to
// repair a position whose region it replaced or mutated in place.
func (ps *preparedScorer) prepare(i int, r *partition.Region) {
	switch ps.kind {
	case kindMannWhitney:
		ps.soa.samples[i] = r.IncomeSample()
		if ps.soa.gridOK {
			stats.FillRankedSample(ps.soa.grid, ps.soa.samples[i], &ps.soa.ranked[i])
		}
	case kindKolmogorovSmirnov:
		ps.soa.samples[i] = r.IncomeSample()
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

// verdict decides the gate for the pair at eligible positions (i, j):
// whether Pass(score, threshold) holds, and the score itself when deciding
// needed it (scored). The z-test replays its threshold through the verified
// |z| band and Mann–Whitney brackets its |z| from prefix tables, so neither
// computes a score for a pair it settles; every other kind scores the pair.
// The verdict is always Pass's, bit for bit.
//
//lint:hotpath
func (ps *preparedScorer) verdict(i, j int, a, b *partition.Region, sc *scratch) (pass bool, score float64, scored bool) {
	switch ps.kind {
	case kindZScore:
		ga, gb := ps.soa.counts[i], ps.soa.counts[j]
		return ps.zBand.LE(stats.TwoProportionZStat(ga.protected, ga.n, gb.protected, gb.n)), 0, false
	case kindMannWhitney:
		if ps.soa.gridOK {
			if pass, decided := ps.soa.mannWhitneyBracket(i, j, sc, &ps.pBand); decided {
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
func (s *soaState) mannWhitneyBracket(i, j int, sc *scratch, band *stats.TwoSidedPGEGate) (pass, decided bool) {
	ra, rb := &s.ranked[i], &s.ranked[j]
	lo, hi := stats.CrossBoundsCoarse(ra, rb)
	if azMin, azMax, ok := stats.MannWhitneyAbsZRange(lo, hi, ra, rb); ok {
		if pass, decided = band.DecideRange(azMin, azMax); decided {
			return pass, true
		}
	}
	lo, hi = s.crossBounds(i, j, sc)
	if azMin, azMax, ok := stats.MannWhitneyAbsZRange(lo, hi, ra, rb); ok {
		return band.DecideRange(azMin, azMax)
	}
	return false, false
}

// score returns the metric's value for the pair at eligible positions (i, j)
// backed by regions (a, b). The SoA kinds read only the flat slices and the
// probe's table in sc, and are allocation-free once that table has grown
// (TestAuditPairKernelZeroAlloc pins it); each is bit-identical to the
// metric's Score (TestFastPathMatchesExact pins it).
//
//lint:hotpath
func (ps *preparedScorer) score(i, j int, a, b *partition.Region, sc *scratch) float64 {
	switch ps.kind {
	case kindMannWhitney:
		return ps.soa.mannWhitneyP(i, j, sc)
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
func (s *soaState) mannWhitneyP(i, j int, sc *scratch) float64 {
	if s.gridOK {
		twoU, ties := s.crossCount(i, j, sc)
		if res, ok := stats.MannWhitneyFromCross(twoU, ties, s.ranked[i].N, s.ranked[j].N); ok {
			return res.P
		}
	}
	return stats.MannWhitneyUSorted(s.samples[i], s.samples[j]).P
}

// crossBounds is stats.CrossBounds of the pair (i, j) from the probe's
// table: i's by default, j's when the caller pairs its probe second, with
// the swapped pair's bracket [lo, hi] mirrored to [n1·n2 − hi, n1·n2 − lo]
// — the same integers either way (see stats.CrossBounds).
//
//lint:hotpath
func (s *soaState) crossBounds(i, j int, sc *scratch) (lo, hi int) {
	ra, rb := &s.ranked[i], &s.ranked[j]
	if !sc.probeSecond {
		return stats.CrossBounds(sc.prefixTable(s, i), ra, rb)
	}
	lo, hi = stats.CrossBounds(sc.prefixTable(s, j), rb, ra)
	total := ra.N * rb.N
	return total - hi, total - lo
}

// crossCount is stats.CrossCount of the pair (i, j) from the probe's table,
// mirrored like crossBounds: 2U(i, j) = 2·n1·n2 − 2U(j, i), and the pooled
// tie term is the union's either way. MannWhitneyFromCross thus receives
// the same integers whichever side the table is built for.
//
//lint:hotpath
func (s *soaState) crossCount(i, j int, sc *scratch) (twoU, ties int64) {
	ra, rb := &s.ranked[i], &s.ranked[j]
	if !sc.probeSecond {
		return stats.CrossCount(sc.prefixTable(s, i), ra, rb)
	}
	twoU, ties = stats.CrossCount(sc.prefixTable(s, j), rb, ra)
	return 2*int64(ra.N)*int64(rb.N) - twoU, ties
}
