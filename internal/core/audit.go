package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// Config parameterizes an LC-SF audit. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Similarity gates non-protected-attribute similarity at Epsilon.
	Similarity PairMetric
	// Dissimilarity gates protected-attribute dissimilarity at Delta.
	Dissimilarity PairMetric
	// Epsilon is Definition 3.3's similarity threshold. Its direction is the
	// Similarity metric's; for the default Mann–Whitney metric a pair is
	// similar when the test's p-value is at least Epsilon.
	Epsilon float64
	// Delta is Definition 3.3's dissimilarity threshold; for the default
	// z-score metric a pair is dissimilar when the test's p-value is at most
	// Delta.
	Delta float64
	// Eta is Definition 3.3's outcome-similarity threshold, used as a fast
	// path: a candidate pair whose positive rates differ by at most Eta is
	// fair without running the likelihood-ratio test. Zero disables the fast
	// path and every candidate pair is tested.
	Eta float64
	// Alpha is the significance level of the Monte-Carlo likelihood-ratio
	// test; a candidate pair with p-value <= Alpha is spatially unfair.
	Alpha float64
	// FDR, when positive, replaces per-pair Alpha flagging with
	// Benjamini–Hochberg control of the false-discovery rate at level FDR
	// across all candidate pairs — an extension beyond the paper for
	// auditors who need the flagged list itself to be mostly real
	// discoveries.
	FDR float64
	// MCWorlds is the number of Monte-Carlo "alternative worlds" (the
	// paper's m).
	MCWorlds int
	// MinRegionSize excludes regions with fewer individuals from every
	// comparison; tiny regions carry no statistical signal.
	MinRegionSize int
	// CandidateGen selects the pair-enumeration strategy; see the
	// CandidateGen constants. The flagged set is identical under every
	// strategy — indexing only prunes pairs the gates provably reject.
	CandidateGen CandidateGen
	// DeltaDirtyFallback tunes delta audits (see DeltaAuditor): when the
	// dirty fraction of the region roster after an update batch exceeds it,
	// the incremental rescore would approach a full sweep's cost with worse
	// constants, so the auditor falls back to the batch engine (which also
	// refreshes every cache at once). Zero selects the default of 0.25; 1
	// disables the fallback; values outside [0,1] are rejected. The result
	// is identical either way — the fallback is purely a cost policy.
	// Ignored by batch Audit calls.
	DeltaDirtyFallback float64
	// Seed drives Monte-Carlo simulation. Audits are deterministic in
	// (input, Config) regardless of parallelism.
	Seed uint64
	// Workers bounds the audit's two goroutine fan-outs, the per-region
	// prepare phase and the pair sweep; 0 means GOMAXPROCS. The summary
	// index, the candidate plan and the result sort run on the calling
	// goroutine.
	Workers int
	// Clock supplies the wall-clock readings behind the audit's timing
	// metrics and events; nil means time.Now. It exists so audits are
	// testable without wall-clock reads and so the determinism linter's
	// allowlist stays empty: results never depend on the clock — only
	// observability does — and nodeterminism enforces that no bare time.Now
	// creeps back into this package. Audit workers time their own shards, so
	// Clock is called concurrently and must be safe for concurrent use
	// (time.Now is).
	Clock func() time.Time
	// Collector, when non-nil, receives per-phase counters, timings, and
	// audit events (see the obs package for the metric vocabulary). It is
	// purely observational: audits are deterministic in (input, Config)
	// whether or not a collector is attached. Nil falls back to the
	// package-level default collector (see SetDefaultCollector), which is
	// itself nil — a no-op — unless a harness installs one.
	Collector *obs.Collector
}

// CandidateGen selects how the audit enumerates region pairs.
type CandidateGen int

const (
	// CandidateAuto (the zero value) uses index-accelerated candidate
	// generation whenever a window or bound provider is available — Eta is
	// positive, or a gate metric implements PrunableMetric — and falls back
	// to the dense sweep otherwise.
	CandidateAuto CandidateGen = iota
	// CandidateDense forces the exhaustive O(R^2) upper-triangle sweep.
	CandidateDense
	// CandidateIndexed requires index-accelerated generation; validation
	// fails when no provider is available under the configured metrics.
	CandidateIndexed
)

// defaultCollector is the fallback sink for audits whose Config carries no
// Collector. Harnesses that cannot thread a collector through every call
// site (lcsf-bench drives the experiments suite, which builds its own
// configs) install one here.
var defaultCollector atomic.Pointer[obs.Collector]

// SetDefaultCollector installs the collector used by audits whose Config has
// a nil Collector; passing nil uninstalls it. It returns the previous
// default.
func SetDefaultCollector(c *obs.Collector) *obs.Collector {
	return defaultCollector.Swap(c)
}

// collector resolves the audit's sink: the explicit one, else the package
// default, else nil (every obs method is a no-op on nil).
func (c Config) collector() *obs.Collector {
	if c.Collector != nil {
		return c.Collector
	}
	return defaultCollector.Load()
}

// workers resolves Config.Workers: 0 (or less) means GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// clock resolves the audit's time source, defaulting to time.Now. All
// wall-clock reads in this package go through it (enforced by the
// nodeterminism analyzer's empty allowlist).
func (c Config) clock() func() time.Time {
	if c.Clock != nil {
		return c.Clock
	}
	// A function-value reference, not a call: the analyzer flags reads
	// (time.Now()), and this default is only ever invoked through clock().
	return time.Now
}

// nullCut is the flag threshold the null store answers exactly at or below:
// FDR's q when FDR is on, else Alpha. Under FDR only p-values <= q can be
// Benjamini–Hochberg rejections (the step-up bound k*q/M never exceeds q),
// so every p-value above the cut may be the store's canonical above-cut
// value without changing a flag.
func (c Config) nullCut() float64 {
	if c.FDR > 0 {
		return c.FDR
	}
	return c.Alpha
}

// DefaultConfig returns the configuration of the paper's mortgage
// experiments: Mann–Whitney similarity and z-score dissimilarity, both at
// the strict 0.001 threshold, an outcome-similarity threshold Eta of five
// percentage points, significance 0.01 with 999 Monte-Carlo worlds, and a
// minimum region size of 100 individuals (smaller regions carry rate
// estimates too noisy for the pairwise test to be meaningful).
func DefaultConfig() Config {
	return Config{
		Similarity:    MannWhitneySimilarity{},
		Dissimilarity: ZScoreDissimilarity{},
		Epsilon:       0.001,
		Delta:         0.001,
		Eta:           0.05,
		Alpha:         0.01,
		MCWorlds:      999,
		MinRegionSize: 100,
		Seed:          1,
	}
}

// EthicalConfig returns the relaxed configuration of the paper's
// healthy-food-access use case ("ethical spatial fairness"): similarity and
// dissimilarity thresholds of 0.01 rather than 0.001, and an outcome
// threshold of ten percentage points — an agency offering incentives cares
// about substantively large disparities, not any statistically resolvable
// one.
func EthicalConfig() Config {
	c := DefaultConfig()
	c.Epsilon = 0.01
	c.Delta = 0.01
	c.Eta = 0.10
	return c
}

// Validate reports the first setting that makes c unusable for an audit.
// Every engine entry point runs it; the service also runs it on a request's
// resolved parameters, so a bad one is refused before the body is read.
func (c Config) Validate() error {
	if c.Similarity == nil || c.Dissimilarity == nil {
		return fmt.Errorf("core: Config requires Similarity and Dissimilarity metrics")
	}
	// Negated in-range tests, so NaN fails them too.
	if !(c.Alpha > 0 && c.Alpha < 1) {
		return fmt.Errorf("core: Alpha %v outside (0,1)", c.Alpha)
	}
	// Every built-in metric scores on [0,1], so a threshold outside it (or
	// NaN) would make its gate pass or fail every pair.
	for _, th := range []struct {
		name string
		v    float64
	}{{"Epsilon", c.Epsilon}, {"Delta", c.Delta}, {"Eta", c.Eta}, {"FDR", c.FDR}, {"DeltaDirtyFallback", c.DeltaDirtyFallback}} {
		if !(th.v >= 0 && th.v <= 1) {
			return fmt.Errorf("core: %s %v outside [0,1]", th.name, th.v)
		}
	}
	if c.MCWorlds < 1 {
		return fmt.Errorf("core: MCWorlds %d < 1", c.MCWorlds)
	}
	if c.MinRegionSize < 1 {
		return fmt.Errorf("core: MinRegionSize %d < 1", c.MinRegionSize)
	}
	switch c.CandidateGen {
	case CandidateAuto, CandidateDense:
	case CandidateIndexed:
		_, dissPrunable := c.Dissimilarity.(PrunableMetric)
		_, simPrunable := c.Similarity.(PrunableMetric)
		if !dissPrunable && !simPrunable && c.Eta <= 0 {
			return fmt.Errorf("core: CandidateIndexed requires Eta > 0 or a PrunableMetric gate; configured metrics offer no index provider")
		}
	default:
		return fmt.Errorf("core: unknown CandidateGen %d", c.CandidateGen)
	}
	return nil
}

// UnfairPair is one spatially unfair pair of regions: similar in the
// non-protected attribute, dissimilar in the protected attribute, with
// significantly different outcomes.
type UnfairPair struct {
	I, J         int     // region indices; I has the lower positive rate
	SimScore     float64 // similarity-metric score
	DissScore    float64 // dissimilarity-metric score
	RateI, RateJ float64 // local positive rates
	SharedI      float64 // protected share of region I
	SharedJ      float64 // protected share of region J
	Tau          float64 // likelihood-ratio statistic
	P            float64 // Monte-Carlo p-value
}

// Result is the outcome of one LC-SF audit.
type Result struct {
	// Pairs holds the spatially unfair pairs, most unfair first (largest
	// likelihood-ratio statistic, ties broken by smaller p-value).
	Pairs []UnfairPair
	// Candidates is the number of pairs that passed both gates and were
	// tested.
	Candidates int
	// EligibleRegions is the number of regions large enough to compare.
	EligibleRegions int
	// GlobalRate is the overall positive rate of the audited data.
	GlobalRate float64
}

// UnfairRegionSet returns the distinct region indices appearing in any
// unfair pair.
func (r *Result) UnfairRegionSet() map[int]bool {
	out := make(map[int]bool, 2*len(r.Pairs))
	for _, pr := range r.Pairs {
		out[pr.I] = true
		out[pr.J] = true
	}
	return out
}

// Top returns the k most unfair pairs (fewer when the result has fewer, none
// when k is negative).
func (r *Result) Top(k int) []UnfairPair {
	k = min(max(k, 0), len(r.Pairs))
	return r.Pairs[:k]
}

// Audit runs the LC-SF audit over a partitioning. It enumerates all pairs of
// eligible regions, applies the dissimilarity gate first (it is O(1) per
// pair), then the Eta outcome fast path (also O(1)), then the similarity
// gate (the expensive one — a rank test over income samples), then the
// Monte-Carlo likelihood-ratio test of Section 3.2 on the surviving
// candidates. Before the pair sweep, a parallel precompute phase builds
// per-region caches for every built-in gate metric (sorted income samples
// and rank indexes for the rank tests, moments and shares for the rest), so
// the steady-state pair loop runs allocation-free kernels instead of
// re-sorting samples per pair; any other metric is scored per pair. The
// audit is deterministic in (p, cfg): each pair's Monte-Carlo null sample is
// seeded from its count signature and the final ordering is fixed by a total
// sort, so results do not depend on goroutine scheduling.
func Audit(p *partition.Partitioning, cfg Config) (*Result, error) {
	return AuditContext(context.Background(), p, cfg)
}

// auditHooks are the engine extension points the delta auditor drives:
// keepAll retains every candidate (not just the reportable ones, at or
// below the flag cut) so the caller can seed its pair cache, and nulls
// substitutes a caller-owned Monte-Carlo null store so filled entries
// survive across audits. Both are result-neutral: keepAll only widens what
// is returned alongside the result, and a NullStore's p-values are
// bit-identical regardless of which store instance (or prior fill state)
// serves them.
type auditHooks struct {
	keepAll bool
	nulls   *stats.NullStore
	// shard/shards, when shards > 1, restrict the sweep's outer-row slots
	// to slice shard of shards equal slices (see shard.go). Every other
	// phase — partitioning, indexing, precompute — is unchanged, so a
	// shard's per-pair results are bit-identical to the batch run's.
	shard, shards int
}

// cancelCheckInterval bounds how many pairs a worker processes between
// context checks. Dense first rows can carry thousands of pairs each running
// Monte-Carlo simulation; checking only between rows made cancellation
// latency proportional to a row's cost, so workers poll every ~256 pairs
// instead (a ~ns amortized cost against µs-scale pair work).
const cancelCheckInterval = 256

// AuditContext's sweep claims outer-loop rows through the work-stealing
// rowScheduler (sched.go), which replaced the global atomic row counter: a
// worker's consecutive claims are consecutive rows, preserving partner-window
// locality, and tail imbalance is absorbed by stealing instead of by tiny
// chunks.

// AuditContext is Audit with cancellation: a dense audit over thousands of
// regions can take seconds, and callers such as the HTTP service need to
// abandon it when the client goes away. Cancellation is checked every
// cancelCheckInterval pairs within each worker; on cancellation the
// context's error is returned and the partial result discarded.
func AuditContext(ctx context.Context, p *partition.Partitioning, cfg Config) (*Result, error) {
	res, run, _, err := auditEngine(ctx, p, cfg, auditHooks{})
	run.release()
	return res, err
}

// auditEngine is the full batch sweep behind AuditContext and the delta
// auditor's cold start. It additionally returns the assembled runner (so an
// incremental caller can adopt its prepared caches and summary index) and,
// under hooks.keepAll, the complete candidate list — the content
// Result.Pairs is filtered from. A candidate at or below the flag cut
// (Config.nullCut) carries exact fields. One above it can never be flagged:
// its P is the null store's canonical above-cut value and its scores are
// zero, while its regions, rates and Tau are exact.
func auditEngine(ctx context.Context, p *partition.Partitioning, cfg Config, hooks auditHooks) (*Result, *auditRunner, []UnfairPair, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	col := cfg.collector()
	now := cfg.clock()
	start := now()
	eligible := p.NonEmpty(cfg.MinRegionSize)
	res := &Result{EligibleRegions: len(eligible), GlobalRate: p.GlobalRate()}

	workers := cfg.workers()
	// Clamp to the number of eligible outer-loop rows: more workers than
	// rows would idle, and zero rows still needs one worker slot so the
	// shard bookkeeping below stays uniform.
	if workers > len(eligible) {
		workers = len(eligible)
	}
	if workers < 1 {
		workers = 1
	}

	col.Inc(obs.MAuditRuns)
	col.Count(obs.MAuditEligible, int64(len(eligible)))
	col.Event("audit.start", "", "audit started", map[string]any{
		"eligible_regions": len(eligible),
		"workers":          workers,
		"mc_worlds":        cfg.MCWorlds,
		"fdr":              cfg.FDR > 0,
	})

	canceled := func(err error) (*Result, *auditRunner, []UnfairPair, error) {
		col.Inc(obs.MAuditCanceled)
		col.Event("audit.canceled", "", "audit canceled", map[string]any{
			"after_seconds": now().Sub(start).Seconds(),
		})
		return nil, nil, nil, err
	}
	col.ObserveSeconds(obs.MAuditPhasePartitionSeconds, now().Sub(start))

	run, err := newAuditRunner(ctx, cfg, p, eligible, hooks.nulls, workers, col)
	if err != nil {
		return canceled(err)
	}
	indexed := run.plan.indexed

	// The pair sweep. Workers claim outer-loop probe rows through
	// the work-stealing rowScheduler — deterministic dynamic scheduling:
	// which worker scores a pair never affects its result (null samples are
	// key-seeded whoever fills them, per-worker state is score-neutral
	// scratch), and the final sort fixes the ordering, so the schedule only
	// shapes wall time. Each
	// worker starts on a contiguous span of rows and steals only when its
	// span drains, so consecutive claims keep overlapping partner windows
	// cache-resident; steals are counted in per-worker padded shards and
	// published once at phase end.
	sweepStart := now()
	type shard struct {
		pairs      []UnfairPair
		tally      pairTally
		candidates int
	}
	shards := make([]shard, workers)
	// Under a shard hook the scheduler deals only the shard's slice of the
	// outer-row slots; slotLo re-bases its claims into the full slot space.
	slotLo, slotHi := 0, len(run.regions)
	if hooks.shards > 1 {
		slotLo = hooks.shard * len(run.regions) / hooks.shards
		slotHi = (hooks.shard + 1) * len(run.regions) / hooks.shards
	}
	sched := newRowScheduler(slotHi-slotLo, workers)
	steals := obs.NewShardedCounter(workers)
	preGated := run.preGated()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := &shards[w]
			var shardStart time.Time
			if col != nil {
				shardStart = now()
			}
			// Per-worker reusable state: one scratch for the null fills and
			// the Mann–Whitney probe's prefix table (built on a row's first
			// fine bracket, reused for the rest of the row: auditPair always
			// takes the probe first, and a row never spans workers), and the
			// worker's pair slice — the steady-state loop allocates nothing
			// beyond that slice's and the table's one-time growth.
			var sc scratch
			sinceCheck := 0
			probe := 0
			// One closure per worker (not per probe): visits partner jj of
			// the current probe, polling for cancellation and filtering
			// indexed candidates through the O(1) summary bounds before the
			// exact cascade. Returning false aborts the enumeration.
			visit := func(jj int) bool {
				sinceCheck++
				if sinceCheck >= cancelCheckInterval {
					sinceCheck = 0
					if ctx.Err() != nil {
						return false
					}
				}
				if indexed {
					sh.tally.windowCandidates++
					if run.summaryReject(probe, jj, &sh.tally) {
						return true
					}
				}
				var ok bool
				if sh.pairs, ok = run.auditPair(probe, jj, &sh.tally, &sc, sh.pairs, hooks.keepAll, preGated); ok {
					sh.candidates++
				}
				return true
			}
			// Under an indexed plan, rows are claimed in income-key order
			// (plan.pos) rather than position order: consecutive probes then
			// share almost their entire partner window, so the partners'
			// prepared arenas stay cache-resident across rows instead of
			// being re-streamed from memory for every probe. Enumeration,
			// tallies, and results are schedule-independent, so row order is
			// a pure locality lever — the pair set is unchanged.
			keyOrder := indexed && len(run.plan.pos) == len(run.regions)
			for {
				lo, hi, stole, ok := sched.next(w)
				if !ok {
					break
				}
				if stole {
					steals.Add(w, 1)
				}
				for r := lo; r < hi; r++ {
					slot := slotLo + r
					ii := slot
					if keyOrder {
						ii = int(run.plan.pos[slot])
					}
					probe = ii
					if !run.plan.forEachPartner(ii, ii+1, len(run.regions), visit) {
						return
					}
				}
			}
			if col != nil {
				col.ObserveSeconds(obs.MAuditShardSeconds, now().Sub(shardStart))
			}
		}(w)
	}
	wg.Wait()
	steals.FlushTo(col, obs.MAuditSweepSteals)
	col.ObserveSeconds(obs.MAuditPhaseSweepSeconds, now().Sub(sweepStart))
	if err := ctx.Err(); err != nil {
		return canceled(err)
	}

	fdrStart := now()
	total := 0
	for i := range shards {
		sh := &shards[i]
		res.Candidates += sh.candidates
		total += len(sh.pairs)
	}
	res.Pairs = make([]UnfairPair, 0, total)
	var tally pairTally
	for i := range shards {
		sh := &shards[i]
		res.Pairs = append(res.Pairs, sh.pairs...)
		tally.add(&sh.tally)
	}
	var candidates []UnfairPair
	if hooks.keepAll {
		// Snapshot every candidate before finalize filters in place; the copy
		// is what the delta auditor seeds its pair cache with.
		candidates = append([]UnfairPair(nil), res.Pairs...)
	}
	res.Pairs = finalizePairs(&cfg, res.Pairs, res.Candidates)
	col.ObserveSeconds(obs.MAuditPhaseFDRSeconds, now().Sub(fdrStart))

	tally.publish(col, res)
	if indexed {
		n := int64(len(run.regions))
		col.Count(obs.MAuditIndexPairsTotal, n*(n-1)/2)
		col.Count(obs.MAuditIndexWindowCandidates, tally.windowCandidates)
		col.Count(obs.MAuditIndexBoundsRejections, tally.boundsRejections)
	}
	elapsed := now().Sub(start)
	col.ObserveSeconds(obs.MAuditSeconds, elapsed)
	col.Event("audit.finish", "", "audit finished", map[string]any{
		"candidates":    res.Candidates,
		"candidate_gen": map[bool]string{true: "indexed", false: "dense"}[indexed],
		"pairs_flagged": len(res.Pairs),
		"seconds":       elapsed.Seconds(),
	})
	return res, run, candidates, nil
}

// finalizePairs turns a collected pair list into Result.Pairs: flagPairs
// filters it in place over a family of n candidates, then the canonical sort
// fixes the order. lessUnfair is a strict total order, so the result is
// byte-identical at every worker count.
func finalizePairs(cfg *Config, pairs []UnfairPair, n int) []UnfairPair {
	pairs = flagPairs(cfg, pairs[:0], pairs, n)
	sortUnfairPairs(pairs)
	return pairs
}

// flagPairs appends to dst the pairs of src the audit flags, src holding at
// least every pair at or below the flag cut (Config.nullCut) of a family of
// n candidates: under FDR (cfg.FDR > 0) the Benjamini–Hochberg rejections,
// through the cut of src's p-values at or below q, otherwise the pairs at or
// below Alpha. It keeps src's order, and dst may be src[:0] to filter in
// place; otherwise dst grows once, to exactly the flagged pairs. Both rules
// are value thresholds over the p-value multiset, so which pairs are flagged
// never depends on src's order, and the batch sweep and the shard merge
// flag through it; the delta auditor's pairCache.flagged applies the same
// two rules to its low set, whose p-values it keeps sorted.
func flagPairs(cfg *Config, dst, src []UnfairPair, n int) []UnfairPair {
	cut := cfg.Alpha
	if cfg.FDR > 0 {
		small := make([]float64, 0, len(src))
		for i := range src {
			if src[i].P <= cfg.FDR {
				small = append(small, src[i].P)
			}
		}
		var ok bool
		if cut, ok = stats.BenjaminiHochbergCut(small, n, cfg.FDR); !ok {
			return dst
		}
	}
	k := 0
	for i := range src {
		if src[i].P <= cut {
			k++
		}
	}
	dst = slices.Grow(dst, k)
	for i := range src {
		if src[i].P <= cut {
			dst = append(dst, src[i])
		}
	}
	return dst
}

// lessUnfair is the canonical result order: most unfair first (largest
// likelihood-ratio statistic), ties by smaller p-value, then region labels.
// It takes pointers so sorts and merges compare pairs in place.
func lessUnfair(a, b *UnfairPair) bool {
	if a.Tau != b.Tau { //lint:floateq-ok deterministic-tie-break
		return a.Tau > b.Tau
	}
	if a.P != b.P { //lint:floateq-ok deterministic-tie-break
		return a.P < b.P
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// pairTally accumulates one shard's per-phase counts with plain (non-atomic)
// integers; shards merge after the barrier, so the hot pair loop pays no
// synchronization for observability.
// The cascade tallies mirror its order (diss → eta → sim → LRT): a pair is
// counted in exactly one of dissRejections, etaFastPath, simRejections, or
// candidates. etaFastPath therefore counts dissimilar pairs whose outcomes
// already match within Eta — including pairs the similarity gate was never
// consulted on, since the O(1) fast path runs before the expensive rank test.
// Every pair reaching the similarity gate is also counted in exactly one of
// simBounded and simExact, by how its verdict was settled.
type pairTally struct {
	scanned        int64 // pairs reaching the gate cascade
	dissRejections int64 // failed the dissimilarity gate
	etaFastPath    int64 // dissimilar pairs exiting via the Eta outcome fast path
	simRejections  int64 // passed dissimilarity and Eta, failed similarity
	simBounded     int64 // similarity verdicts settled without the pair's score
	simExact       int64 // similarity verdicts that computed the pair's score
	nullHits       int64 // null-store lookups after a key's first
	nullFills      int64 // null-store first lookups of a key
	nullWorlds     int64 // Monte-Carlo worlds the null-store lookups drew

	// Indexed-plan counters (zero under a dense plan): pairs emitted by the
	// window join, and emitted pairs the O(1) summary bounds (metric Bounds
	// plus the exact Eta interval) rejected before the cascade. scanned ==
	// windowCandidates - boundsRejections under an indexed plan.
	windowCandidates int64
	boundsRejections int64
}

func (t *pairTally) add(o *pairTally) {
	t.scanned += o.scanned
	t.dissRejections += o.dissRejections
	t.simRejections += o.simRejections
	t.etaFastPath += o.etaFastPath
	t.simBounded += o.simBounded
	t.simExact += o.simExact
	t.nullHits += o.nullHits
	t.nullFills += o.nullFills
	t.nullWorlds += o.nullWorlds
	t.windowCandidates += o.windowCandidates
	t.boundsRejections += o.boundsRejections
}

// publish pushes the merged tally plus the result-level counts into the
// collector (no-op when col is nil).
func (t *pairTally) publish(col *obs.Collector, res *Result) {
	col.Count(obs.MAuditPairsScanned, t.scanned)
	col.Count(obs.MAuditDissRejections, t.dissRejections)
	col.Count(obs.MAuditSimRejections, t.simRejections)
	col.Count(obs.MAuditEtaFastPath, t.etaFastPath)
	col.Count(obs.MAuditSimBounded, t.simBounded)
	col.Count(obs.MAuditSimExact, t.simExact)
	col.Count(obs.MAuditMCWorlds, t.nullWorlds)
	col.Count(obs.MMCNullCacheHits, t.nullHits)
	col.Count(obs.MMCNullCacheMisses, t.nullFills)
	col.Count(obs.MAuditCandidates, int64(res.Candidates))
	col.Count(obs.MAuditFlagged, int64(len(res.Pairs)))
}

// auditRunner carries one run's sweep state: the configuration, the eligible
// regions (indexed by position in the eligible list, matching the prepared
// scorers' caches), the two gate scorers, the candidate plan, and the
// Monte-Carlo null store. A runner lives for exactly one batch audit, shard,
// or delta roster; its arenas are its own.
type auditRunner struct {
	cfg       Config
	regions   []*partition.Region
	sim, diss preparedScorer

	// nulls answers Monte-Carlo p-values from key-seeded null samples
	// shared by every pair with the same count signature.
	nulls *stats.NullStore

	// Index state, populated by buildIndex (zero-valued under a dense plan):
	// the summary index itself (retained so the delta auditor can repair it
	// incrementally), per-region summaries aligned with regions, the envelope
	// stats the conservative bounds consume, the two gates' optional Bounds
	// implementations, and the enumeration plan.
	ix        *partition.SummaryIndex
	summaries []partition.RegionSummary
	env       *partition.SummaryStats
	dissB     PrunableMetric
	simB      PrunableMetric
	plan      *candidatePlan

	// laLL caches each region's alternative-hypothesis log-likelihood
	// MaxBernoulliLogLik(Positives, N) — a per-region constant that
	// stats.PairLRT would otherwise recompute for every candidate pair; the
	// null store's PairTest takes a pair's sum of the two. Filled by
	// fillLogLik; refreshed by repairLogLik when the delta auditor repairs a
	// region in place.
	laLL []float64
}

// newAuditRunner sets up one run's sweep state over the eligible regions of p
// (indices into p.Regions): prepared scorers for both gate metrics, the
// candidate plan — indexed unless CandidateDense is forced — and the
// log-likelihood cache, then every region's prepared caches, filled by up to
// workers goroutines. A nil nulls gets a fresh null store. Batch audits,
// shards, and the delta auditor's roster rebuilds all set up through it; the
// index and prepare phase timings go to col. On cancellation during prepare
// it returns the context's error.
func newAuditRunner(ctx context.Context, cfg Config, p *partition.Partitioning, eligible []int, nulls *stats.NullStore, workers int, col *obs.Collector) (*auditRunner, error) {
	now := cfg.clock()
	indexStart := now()
	regions := make([]*partition.Region, len(eligible))
	for i, idx := range eligible {
		regions[i] = &p.Regions[idx]
	}
	if nulls == nil {
		nulls = stats.NewNullStore(cfg.Seed, cfg.MCWorlds, cfg.nullCut())
	}
	run := &auditRunner{
		cfg:     cfg,
		regions: regions,
		sim:     newPreparedScorer(cfg.Similarity, cfg.Epsilon),
		diss:    newPreparedScorer(cfg.Dissimilarity, cfg.Delta),
		nulls:   nulls,
		plan:    &candidatePlan{},
	}

	// Candidate generation: under CandidateDense the plan walks the full
	// upper triangle; otherwise the runner builds per-region summaries,
	// sorted 1-D orders, and per-probe prune windows (see candidates.go).
	// Indexed and dense plans yield the identical flagged set — windows and
	// summary bounds only skip pairs the exact gates provably reject.
	if cfg.CandidateGen != CandidateDense {
		run.buildIndex()
	}
	run.fillLogLik()
	col.ObserveSeconds(obs.MAuditPhaseIndexSeconds, now().Sub(indexStart))

	// Parallel precompute. Each built-in gate metric builds its per-region
	// cache exactly once, claimed dynamically off an atomic counter;
	// beginPrepare fixes each region's arena segment up front, so writes
	// land at disjoint preassigned indices and the phase needs no other
	// synchronization — its output is position-determined regardless of
	// which worker prepared which region.
	prepStart := now()
	if run.sim.needsPrepare() || run.diss.needsPrepare() {
		run.sim.beginPrepare(regions)
		run.diss.beginPrepare(regions)
		var nextRegion atomic.Int64
		var pg sync.WaitGroup
		for w := 0; w < workers; w++ {
			pg.Add(1)
			go func() {
				defer pg.Done()
				for {
					i := int(nextRegion.Add(1)) - 1
					if i >= len(regions) || ctx.Err() != nil {
						return
					}
					run.sim.prepare(i, regions[i])
					run.diss.prepare(i, regions[i])
				}
			}()
		}
		pg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		preparedMetrics := 0
		if run.sim.needsPrepare() {
			preparedMetrics++
		}
		if run.diss.needsPrepare() {
			preparedMetrics++
		}
		col.Count(obs.MAuditPreparedRegions, int64(preparedMetrics*len(regions)))
	}
	col.ObserveSeconds(obs.MAuditPhasePrepareSeconds, now().Sub(prepStart))
	return run, nil
}

// buildIndex summarizes the eligible regions and builds the candidate plan.
// When no window or bound provider is available under the configured metrics
// the plan stays dense and the summary state is released.
func (ar *auditRunner) buildIndex() {
	ix := partition.NewSummaryIndex(ar.regions)
	ar.plan = buildCandidatePlan(&ar.cfg, ix)
	if !ar.plan.indexed {
		return
	}
	ar.ix = ix
	ar.summaries = ix.Summaries
	ar.env = &ix.Stats
	ar.dissB, _ = ar.cfg.Dissimilarity.(PrunableMetric)
	ar.simB, _ = ar.cfg.Similarity.(PrunableMetric)
}

// fillLogLik computes every region's cached alternative-hypothesis
// log-likelihood term. O(R) against the sweep's O(R·window) candidates.
func (ar *auditRunner) fillLogLik() {
	ar.laLL = make([]float64, len(ar.regions))
	for i, r := range ar.regions {
		ar.laLL[i] = stats.MaxBernoulliLogLik(r.Positives, r.N)
	}
}

// release drops every reference the runner holds once its audit is over and
// nothing will read it again (a nil runner is a no-op). The runtime scans
// the innermost frame of an asynchronously preempted goroutine
// conservatively, so a stale word that one audit's worker left in reused
// stack memory can keep its runner reachable through a later audit's
// sweep. Cleared, such a runner pins one small struct instead of its
// prepared arenas and index: in a loop of R=3000 dense audits an uncleared
// one kept some 55 MB alive, and the GC doubled that into its heap goal.
func (ar *auditRunner) release() {
	if ar != nil {
		*ar = auditRunner{}
	}
}

// repairLogLik refreshes one region's cached term after an in-place repair.
func (ar *auditRunner) repairLogLik(pos int, r *partition.Region) {
	ar.laLL[pos] = stats.MaxBernoulliLogLik(r.Positives, r.N)
}

// preGated reports whether summaryReject replays the dissimilarity and Eta
// gates exactly, so pairs it admits may skip them (see auditPair). It holds
// under an indexed plan with the z-test dissimilarity gate: the summary
// replay consumes the same integers and the same float64 rates the cascade
// would (see partition.Summarize), through the same |z| band.
func (ar *auditRunner) preGated() bool {
	return ar.plan.indexed && ar.diss.kind == kindZScore
}

// summaryReject applies the O(1) summary-level filters to an emitted
// candidate: the exact Eta interval and each prunable gate's Bounds. True
// means the exact cascade would certainly reject the pair, so it is skipped
// (and tallied) without touching the regions.
//
//lint:hotpath
func (ar *auditRunner) summaryReject(ii, jj int, t *pairTally) bool {
	sa, sb := &ar.summaries[ii], &ar.summaries[jj]
	if ar.cfg.Eta > 0 && math.Abs(sa.PositiveRate-sb.PositiveRate) <= ar.cfg.Eta {
		t.boundsRejections++
		return true
	}
	if ar.diss.kind == kindZScore {
		// ZScoreDissimilarity.Bounds replays the gate exactly; the band
		// compare is the same decision without the per-candidate erfc.
		if !ar.diss.zBand.LE(stats.TwoProportionZStat(sa.Protected, sa.N, sb.Protected, sb.N)) {
			t.boundsRejections++
			return true
		}
	} else if ar.dissB != nil && ar.dissB.Bounds(sa, sb, ar.cfg.Delta, ar.env) {
		t.boundsRejections++
		return true
	}
	if ar.simB != nil && ar.simB.Bounds(sa, sb, ar.cfg.Epsilon, ar.env) {
		t.boundsRejections++
		return true
	}
	return false
}

// auditPair applies the gate cascade — dissimilarity, the Eta outcome fast
// path, similarity — and, for candidates, the Monte-Carlo LRT. ii and jj are
// positions in the eligible list. ok reports whether the pair was a candidate
// (passed every gate). A candidate is appended to dst when it is reportable
// — its P at or below the flag cut, Config.nullCut — or when keepAll asks
// for every candidate. Each phase's outcome is tallied into t for the
// observability layer. Batch sweeps, shards, and delta rescoring all run it.
//
// The Eta check runs before the similarity test because it is O(1) on
// already-aggregated rates while the rank test is O(n_a+n_b) even against
// sorted caches: Definition 3.3 flags a pair only when ALL THREE conditions
// hold (similar incomes AND dissimilar composition AND significantly
// different outcomes), so short-circuiting a conjunction in any order leaves
// the flagged set — and hence the audit result — unchanged; only the tally
// attribution of doubly-failing pairs moves between buckets.
//
// Each gate decides its verdict before any score (preparedScorer.verdict):
// the z-test through its verified |z| band, Mann–Whitney through bracketed
// |z| intervals, with the exact kernel only for pairs the brackets leave
// open. SimScore and DissScore are materialized only for reportable
// candidates: only they can be flagged (a Benjamini–Hochberg rejection needs
// p <= q), so every other candidate keepAll appends carries zero scores.
//
// preGated asserts the caller already ran summaryReject on this pair and
// that it replays the dissimilarity and Eta gates exactly (see
// auditRunner.preGated): a surviving pair is guaranteed to pass both checks,
// so the cascade skips them — no decision or tally can change, the
// increments it skips are provably zero.
//
// This is the audit's steady-state kernel and it must not heap-allocate
// beyond dst's amortized growth: tau and p come from one null-store lookup
// (a count or binary search over an entry's kept statistics, or a fill that
// keeps nothing past the store's bound), and the built-in metrics score
// against caches built in the precompute phase.
// TestAuditPairKernelZeroAlloc pins the property.
//
//lint:hotpath
func (ar *auditRunner) auditPair(ii, jj int, t *pairTally, sc *scratch, dst []UnfairPair, keepAll, preGated bool) ([]UnfairPair, bool) {
	a, b := ar.regions[ii], ar.regions[jj]
	cfg := &ar.cfg
	t.scanned++
	var diss float64
	dissScored := false
	if !preGated {
		var pass bool
		pass, diss, dissScored = ar.diss.verdict(ii, jj, a, b, sc)
		if !pass {
			t.dissRejections++
			return dst, false
		}
		if cfg.Eta > 0 && math.Abs(a.PositiveRate()-b.PositiveRate()) <= cfg.Eta {
			t.etaFastPath++
			return dst, false
		}
	}
	pass, sim, simScored := ar.sim.verdict(ii, jj, a, b, sc)
	if simScored {
		t.simExact++
	} else {
		t.simBounded++
	}
	if !pass {
		t.simRejections++
		return dst, false
	}

	tau, pval, drawn, filled := ar.nulls.PairTest(a.Positives, a.N, b.Positives, b.N, ar.laLL[ii]+ar.laLL[jj], &sc.null)
	t.nullWorlds += int64(drawn)
	if filled {
		t.nullFills++
	} else {
		t.nullHits++
	}
	reportable := pval <= cfg.nullCut()
	if !reportable && !keepAll {
		return dst, true
	}
	dst = append(dst, UnfairPair{ //lint:hotpathalloc-ok grows the worker's candidate slice, amortized over the sweep
		I: a.Index, J: b.Index,
		RateI: a.PositiveRate(), RateJ: b.PositiveRate(),
		SharedI: a.ProtectedShare(), SharedJ: b.ProtectedShare(),
		Tau: tau, P: pval,
	})
	pr := &dst[len(dst)-1]
	if reportable {
		if !simScored {
			sim = ar.sim.score(ii, jj, a, b, sc)
		}
		if !dissScored {
			diss = ar.diss.score(ii, jj, a, b, sc)
		}
		pr.SimScore, pr.DissScore = sim, diss
	}
	// Orient the pair so I is the disadvantaged region.
	if pr.RateI > pr.RateJ {
		pr.I, pr.J = pr.J, pr.I
		pr.RateI, pr.RateJ = pr.RateJ, pr.RateI
		pr.SharedI, pr.SharedJ = pr.SharedJ, pr.SharedI
	}
	return dst, true
}
