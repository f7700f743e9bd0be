package core

import (
	"context"
	"testing"

	"lcsf/internal/obs"
)

func newTestCollector() *obs.Collector { return obs.NewCollector(64) }

// TestAuditRecordsPhaseCounters audits an instrumented fixture and checks
// every per-phase counter the observability layer promises, including the
// exhaustiveness invariant: every scanned pair is accounted for by exactly
// one gate rejection, the Eta fast path, or candidacy.
func TestAuditRecordsPhaseCounters(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	// Pin the classic dense sweep: this test asserts the full-triangle scan
	// count, which the indexed plan legitimately changes (see
	// TestAuditIndexedFunnelCounters).
	cfg.CandidateGen = CandidateDense
	col := newTestCollector()
	cfg.Collector = col

	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()

	if s.Counter(obs.MAuditRuns) != 1 {
		t.Errorf("runs = %d", s.Counter(obs.MAuditRuns))
	}
	if got := s.Counter(obs.MAuditEligible); got != int64(res.EligibleRegions) {
		t.Errorf("eligible counter = %d, result = %d", got, res.EligibleRegions)
	}
	if got := s.Counter(obs.MAuditCandidates); got != int64(res.Candidates) {
		t.Errorf("candidates counter = %d, result = %d", got, res.Candidates)
	}
	if got := s.Counter(obs.MAuditFlagged); got != int64(len(res.Pairs)) {
		t.Errorf("flagged counter = %d, result = %d", got, len(res.Pairs))
	}

	n := int64(res.EligibleRegions)
	scanned := s.Counter(obs.MAuditPairsScanned)
	if want := n * (n - 1) / 2; scanned != want {
		t.Errorf("scanned = %d, want all %d pairs", scanned, want)
	}
	accounted := s.Counter(obs.MAuditDissRejections) +
		s.Counter(obs.MAuditSimRejections) +
		s.Counter(obs.MAuditEtaFastPath) +
		s.Counter(obs.MAuditCandidates)
	if accounted != scanned {
		t.Errorf("phase counters don't partition the scan: %d accounted of %d scanned", accounted, scanned)
	}
	requireSimilaritySettled(t, s)

	for _, name := range []string{
		obs.MAuditDissRejections, obs.MAuditSimRejections,
		obs.MAuditEtaFastPath, obs.MAuditMCWorlds,
	} {
		if s.Counter(name) == 0 {
			t.Errorf("counter %s = 0; fixture should exercise every phase", name)
		}
	}
	if s.Counter(obs.MAuditMCWorlds) > int64(res.Candidates*cfg.MCWorlds) {
		t.Errorf("mc worlds = %d exceeds candidates*m = %d",
			s.Counter(obs.MAuditMCWorlds), res.Candidates*cfg.MCWorlds)
	}

	// Both default gate metrics implement PreparedMetric, so the precompute
	// phase builds exactly two caches per eligible region and times itself.
	if got := s.Counter(obs.MAuditPreparedRegions); got != 2*n {
		t.Errorf("prepared regions = %d, want %d (two metrics x %d regions)", got, 2*n, n)
	}
	if h := s.Histograms[obs.MAuditPrepareSeconds]; h.Count != 1 {
		t.Errorf("audit.prepare_seconds histogram = %+v", h)
	}

	if h := s.Histograms[obs.MAuditSeconds]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("audit.seconds histogram = %+v", h)
	}
	if h := s.Histograms[obs.MAuditShardSeconds]; h.Count < 1 {
		t.Errorf("audit.shard_seconds histogram = %+v", h)
	}

	evs := col.Events().Recent(0)
	if len(evs) != 2 || evs[0].Type != "audit.start" || evs[1].Type != "audit.finish" {
		t.Errorf("events = %+v", evs)
	}
}

// TestAuditIndexedFunnelCounters audits the same fixture under the default
// indexed plan and checks the extended gate funnel: the window join's
// emissions, the summary-bounds rejections, and the invariant tying them to
// the cascade — every emitted pair is either bounds-rejected or scanned, and
// every scanned pair is accounted for by exactly one cascade exit.
func TestAuditIndexedFunnelCounters(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	col := newTestCollector()
	cfg.Collector = col

	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()

	n := int64(res.EligibleRegions)
	total := s.Counter(obs.MAuditIndexPairsTotal)
	if want := n * (n - 1) / 2; total != want {
		t.Errorf("index pairs_total = %d, want %d", total, want)
	}
	emitted := s.Counter(obs.MAuditIndexWindowCandidates)
	bounds := s.Counter(obs.MAuditIndexBoundsRejections)
	scanned := s.Counter(obs.MAuditPairsScanned)
	if emitted <= 0 || emitted > total {
		t.Errorf("window candidates = %d outside (0, %d]", emitted, total)
	}
	if emitted >= total {
		t.Errorf("window join emitted all %d pairs; no pruning happened", total)
	}
	if bounds <= 0 {
		t.Error("summary bounds rejected nothing; fixture should exercise them")
	}
	if scanned != emitted-bounds {
		t.Errorf("scanned = %d, want window candidates - bounds rejections = %d-%d", scanned, emitted, bounds)
	}
	accounted := s.Counter(obs.MAuditDissRejections) +
		s.Counter(obs.MAuditSimRejections) +
		s.Counter(obs.MAuditEtaFastPath) +
		s.Counter(obs.MAuditCandidates)
	if accounted != scanned {
		t.Errorf("cascade counters don't partition the scan: %d accounted of %d scanned", accounted, scanned)
	}
	requireSimilaritySettled(t, s)

	evs := col.Events().Recent(0)
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if gen := evs[1].Fields["candidate_gen"]; gen != "indexed" {
		t.Errorf("audit.finish candidate_gen = %v, want indexed", gen)
	}
}

// requireSimilaritySettled asserts the similarity gate's settlement split:
// every pair reaching the gate — scanned, minus dissimilarity rejections and
// Eta exits — is counted once as settled from bounds or by its exact score,
// and the default Mann–Whitney gate settles some pairs from bounds alone.
func requireSimilaritySettled(t *testing.T, s obs.Snapshot) {
	t.Helper()
	bounded, exact := s.Counter(obs.MAuditSimBounded), s.Counter(obs.MAuditSimExact)
	reached := s.Counter(obs.MAuditPairsScanned) - s.Counter(obs.MAuditDissRejections) - s.Counter(obs.MAuditEtaFastPath)
	if bounded+exact != reached {
		t.Errorf("similarity gate settled %d bounded + %d exact, want the %d pairs reaching it", bounded, exact, reached)
	}
	if bounded == 0 {
		t.Error("no similarity verdict settled from bounds; fixture should exercise the brackets")
	}
}

// TestAuditNullCacheCounters pins the null store's accounting: every
// simulated candidate answers exactly one store lookup, each distinct count
// signature's first lookup is counted once (misses), the worlds drawn never
// exceed misses x MCWorlds — and stay below it at Alpha 0.05, where first
// lookups of unflaggable pairs stop early, but reach it at an Alpha no first
// lookup can stop before its last world — and the retired pre-warm metrics
// stay unrecorded.
func TestAuditNullCacheCounters(t *testing.T) {
	p := manyRegions(t)
	for _, alpha := range []float64{0.05, 0.999} {
		cfg := DefaultConfig()
		cfg.Alpha = alpha
		cfg.MCWorlds = 99
		col := newTestCollector()
		cfg.Collector = col

		res, err := Audit(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := col.Snapshot()

		hits := s.Counter(obs.MMCNullCacheHits)
		misses := s.Counter(obs.MMCNullCacheMisses)
		candidates := int64(res.Candidates)
		if hits+misses != candidates {
			t.Errorf("alpha %v: store lookups = %d hits + %d misses, want %d candidates", alpha, hits, misses, candidates)
		}
		if misses <= 0 || misses > candidates {
			t.Errorf("alpha %v: misses = %d outside (0, %d candidates]", alpha, misses, candidates)
		}
		worlds, bound := s.Counter(obs.MAuditMCWorlds), misses*int64(cfg.MCWorlds)
		// At alpha 0.999 only a count of all 99 worlds proves p > alpha, so
		// every first lookup draws all of them.
		if full := alpha > 0.99; worlds > bound || (worlds == bound) != full {
			t.Errorf("alpha %v: mc worlds = %d against misses x m = %d; want equality %v", alpha, worlds, bound, full)
		}
		for _, name := range []string{obs.MMCNullPrewarmKeys, obs.MMCNullPrewarmWorlds} {
			if _, ok := s.Counters[name]; ok {
				t.Errorf("retired counter %s was recorded", name)
			}
		}
		if _, ok := s.Histograms[obs.MAuditPhasePrewarmSeconds]; ok {
			t.Errorf("retired histogram %s was recorded", obs.MAuditPhasePrewarmSeconds)
		}
	}
}

// TestAuditFDRWorldsExact asserts FDR audits draw their p-values from the
// same null store as Alpha audits — one first lookup per count signature,
// never more than MCWorlds worlds each — and that the worlds drawn, although
// first lookups stop at the q cut, are the same count across worker counts
// and candidate plans: a key looked up twice always ends at m worlds, and a
// key looked up once stops at a point fixed by its one observation.
func TestAuditFDRWorldsExact(t *testing.T) {
	p := manyRegions(t)
	var first int64 = -1
	for _, gen := range []CandidateGen{CandidateDense, CandidateIndexed} {
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.Alpha = 0.05
			cfg.FDR = 0.10
			cfg.MCWorlds = 99
			cfg.CandidateGen = gen
			cfg.Workers = workers
			col := newTestCollector()
			cfg.Collector = col

			if _, err := Audit(p, cfg); err != nil {
				t.Fatal(err)
			}
			s := col.Snapshot()
			candidates := s.Counter(obs.MAuditCandidates)
			misses := s.Counter(obs.MMCNullCacheMisses)
			if hits := s.Counter(obs.MMCNullCacheHits); hits+misses != candidates {
				t.Errorf("gen %v workers %d: store lookups = %d hits + %d misses, want %d candidates", gen, workers, hits, misses, candidates)
			}
			worlds := s.Counter(obs.MAuditMCWorlds)
			if worlds > misses*int64(cfg.MCWorlds) || worlds <= 0 {
				t.Errorf("gen %v workers %d: mc worlds = %d, want in (0, %d] (= %d first lookups x %d)", gen, workers, worlds, misses*int64(cfg.MCWorlds), misses, cfg.MCWorlds)
			}
			if first < 0 {
				first = worlds
			} else if worlds != first {
				t.Errorf("gen %v workers %d: mc worlds = %d, first run drew %d", gen, workers, worlds, first)
			}
		}
	}
}

// TestAuditCollectorDoesNotChangeResult runs the same audit bare and
// instrumented; the pairs must be identical (observability is passive).
func TestAuditCollectorDoesNotChangeResult(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199

	bare, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector = newTestCollector()
	instr, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Pairs) != len(instr.Pairs) {
		t.Fatalf("instrumentation changed pair count: %d vs %d", len(bare.Pairs), len(instr.Pairs))
	}
	for i := range bare.Pairs {
		if bare.Pairs[i] != instr.Pairs[i] {
			t.Fatalf("instrumentation changed pair %d", i)
		}
	}
}

// TestDefaultCollector exercises the package-level fallback used by
// harnesses that cannot thread a collector through every Config.
func TestDefaultCollector(t *testing.T) {
	col := newTestCollector()
	prev := SetDefaultCollector(col)
	defer SetDefaultCollector(prev)

	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 99
	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	if col.Snapshot().Counter(obs.MAuditRuns) != 1 {
		t.Error("default collector did not receive the audit")
	}

	// An explicit collector takes precedence over the default.
	own := newTestCollector()
	cfg.Collector = own
	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	if own.Snapshot().Counter(obs.MAuditRuns) != 1 {
		t.Error("explicit collector ignored")
	}
	if col.Snapshot().Counter(obs.MAuditRuns) != 1 {
		t.Error("default collector double-counted an explicitly-collected audit")
	}
}

// TestAuditCanceledRecordsEvent cancels an audit up front and checks the
// cancellation is observable.
func TestAuditCanceledRecordsEvent(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	col := newTestCollector()
	cfg.Collector = col

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AuditContext(ctx, p, cfg); err == nil {
		t.Fatal("canceled audit must fail")
	}
	if col.Snapshot().Counter(obs.MAuditCanceled) != 1 {
		t.Error("cancellation not counted")
	}
	evs := col.Events().Recent(0)
	if len(evs) == 0 || evs[len(evs)-1].Type != "audit.canceled" {
		t.Errorf("missing audit.canceled event: %+v", evs)
	}
}

// TestAuditPhaseSecondsInvariant checks the per-phase wall-clock breakdown:
// every pipeline phase publishes exactly one observation per audit, and the
// phases — which are disjoint intervals of the audit's span — sum to no more
// than the total. The sweep-steals counter must also be published (possibly
// zero: a single span per worker steals nothing) whenever a collector is
// attached.
func TestAuditPhaseSecondsInvariant(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	cfg.Workers = 4
	col := newTestCollector()
	cfg.Collector = col

	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()

	phases := []string{
		obs.MAuditPhasePartitionSeconds,
		obs.MAuditPhaseIndexSeconds,
		obs.MAuditPhasePrepareSeconds,
		obs.MAuditPhaseSweepSeconds,
		obs.MAuditPhaseFDRSeconds,
	}
	var phaseSum float64
	for _, name := range phases {
		h, ok := s.Histograms[name]
		if !ok || h.Count != 1 {
			t.Errorf("phase %s: want exactly one observation, got %+v", name, h)
			continue
		}
		if h.Sum < 0 {
			t.Errorf("phase %s: negative duration %v", name, h.Sum)
		}
		phaseSum += h.Sum
	}
	total := s.Histograms[obs.MAuditSeconds].Sum
	if phaseSum > total {
		t.Errorf("phases sum to %v, more than the audit total %v", phaseSum, total)
	}
	if s.Histograms[obs.MAuditPhaseSweepSeconds].Sum <= 0 {
		t.Error("sweep phase recorded zero duration on a real workload")
	}
	if _, ok := s.Counters[obs.MAuditSweepSteals]; !ok {
		t.Error("audit.sweep.steals not published")
	}
}

// TestAuditSweepStealsCounts drives a full worker fan-out (one span per
// eligible region) and checks the steal counter is wired end-to-end: the
// flush publishes a well-formed count under maximum contention. Whether any
// steal actually occurs depends on scheduling; the steal mechanics
// themselves are pinned deterministically by the rowScheduler unit tests,
// and result-set invariance under stealing by the workers battery in
// internal/verify.
func TestAuditSweepStealsCounts(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 999
	cfg.Workers = 12 // one span per eligible region: every idle worker must steal
	col := newTestCollector()
	cfg.Collector = col

	if _, err := Audit(p, cfg); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Counter(obs.MAuditSweepSteals); got < 0 {
		t.Errorf("steals = %d", got)
	}
}
