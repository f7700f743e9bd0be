package obs

import "time"

// Canonical metric names. Every instrumented layer records under these so
// operators (and tests) have one vocabulary; README.md's Observability
// section documents each.
const (
	// Audit-engine counters (internal/core).
	MAuditRuns           = "audit.runs"
	MAuditEligible       = "audit.eligible_regions"
	MAuditPairsScanned   = "audit.pairs_scanned"
	MAuditDissRejections = "audit.gate.dissimilarity_rejections"
	MAuditSimRejections  = "audit.gate.similarity_rejections"
	MAuditEtaFastPath    = "audit.gate.eta_fastpath_exits"
	// MAuditSimBounded and MAuditSimExact split the pairs reaching the
	// similarity gate by how its verdict was settled: from bounds alone
	// (Mann–Whitney's bracketed |z| intervals) or by computing the pair's
	// score (bounded + exact == pairs_scanned − dissimilarity_rejections −
	// eta_fastpath_exits).
	MAuditSimBounded = "audit.gate.similarity_bounded"
	MAuditSimExact   = "audit.gate.similarity_exact"
	MAuditCandidates = "audit.candidates"
	MAuditMCWorlds   = "audit.mc.worlds"
	MAuditFlagged    = "audit.pairs_flagged"
	MAuditCanceled   = "audit.canceled"
	// MAuditPreparedRegions counts per-region metric caches built by the
	// audit's precompute phase (one per eligible region per metric
	// implementing core.PreparedMetric).
	MAuditPreparedRegions = "audit.prepared_regions"

	// Index-accelerated candidate generation (internal/core). Recorded only
	// when the audit ran an indexed plan: the full triangle size, the pairs
	// the sorted window join emitted, and the emitted pairs the O(1)
	// summary bounds rejected before the exact cascade (pairs_scanned ==
	// window_candidates - bounds_rejections on indexed audits).
	MAuditIndexPairsTotal       = "audit.index.pairs_total"
	MAuditIndexWindowCandidates = "audit.index.window_candidates"
	MAuditIndexBoundsRejections = "audit.index.bounds_rejections"

	// Delta-audit counters (internal/core): incremental audits over a
	// DeltaPartitioning. Per delta audit, dirty_regions is the number of
	// regions the preceding update batch touched, invalidated_pairs the
	// cached candidate pairs dropped because a dirty region participates,
	// rescored_pairs the pairs re-run through the exact gate cascade,
	// rescored_candidates those that passed every gate again, and
	// reused_pairs the cached candidates carried over untouched
	// (audit.candidates == reused_pairs + rescored_candidates on every
	// incremental pass). full_sweeps counts the audits that fell back to the
	// batch engine (first run, or a dirty fraction above
	// Config.DeltaDirtyFallback).
	MAuditDeltaRuns          = "audit.delta.runs"
	MAuditDeltaFullSweeps    = "audit.delta.full_sweeps"
	MAuditDeltaDirtyRegions  = "audit.delta.dirty_regions"
	MAuditDeltaInvalidated   = "audit.delta.invalidated_pairs"
	MAuditDeltaReused        = "audit.delta.reused_pairs"
	MAuditDeltaRescored      = "audit.delta.rescored_pairs"
	MAuditDeltaRescoredCands = "audit.delta.rescored_candidates"

	// Monte-Carlo null store (internal/core, stats.NullStore): misses count
	// each key's first lookup, hits every other lookup, so
	// hits + misses == candidates. audit.mc.worlds
	// sums the worlds actually drawn — first lookups stop once the count
	// proves p above the flag cut, and a key's second lookup draws the rest
	// — so audit.mc.worlds <= misses x Config.MCWorlds, with equality when
	// no first lookup stopped early.
	MMCNullCacheHits   = "mc.null_cache_hits"
	MMCNullCacheMisses = "mc.null_cache_misses"

	// MMCNullPrewarmKeys and MMCNullPrewarmWorlds are no longer recorded:
	// the engine has no pre-warm pass, and null samples are filled inside
	// the sweep phase (counted by MMCNullCacheMisses). The names stay
	// declared for callers that still read them; they read zero.
	MMCNullPrewarmKeys   = "mc.null_prewarm.keys"
	MMCNullPrewarmWorlds = "mc.null_prewarm.worlds"

	// MAuditSweepSteals counts pair-sweep scheduler steals: an idle worker
	// exhausting its contiguous row span and migrating the tail half of the
	// largest remaining span. Steals move only work placement, never results;
	// a high rate relative to rows means the candidate distribution is skewed
	// across the row space.
	MAuditSweepSteals = "audit.sweep.steals"

	// Audit-engine histograms (seconds).
	MAuditSeconds = "audit.seconds"
	// Per-phase wall times of one batch audit, one observation per run:
	// eligible-region selection and runner assembly (partition), summary-index
	// and candidate-plan construction (index), the parallel per-region metric
	// precompute (prepare), the pair sweep including its null-sample fills
	// (sweep), and result finalization — filtering, Benjamini–Hochberg when
	// configured, and the canonical sort (fdr). Their sum tracks
	// MAuditSeconds up to inter-phase glue. MAuditPhasePrewarmSeconds is no
	// longer recorded (there is no pre-warm phase); the name stays declared
	// for callers that still read it, and reads as an empty histogram.
	MAuditPhasePartitionSeconds = "audit.phase_seconds.partition"
	MAuditPhaseIndexSeconds     = "audit.phase_seconds.index"
	MAuditPhasePrepareSeconds   = "audit.phase_seconds.prepare"
	MAuditPhasePrewarmSeconds   = "audit.phase_seconds.prewarm"
	MAuditPhaseSweepSeconds     = "audit.phase_seconds.sweep"
	MAuditPhaseFDRSeconds       = "audit.phase_seconds.fdr"
	// MAuditPrepareSeconds is the wall time of the parallel precompute phase
	// that builds per-region metric caches before the pair sweep.
	MAuditPrepareSeconds = "audit.prepare_seconds"
	MAuditShardSeconds   = "audit.shard_seconds"
	// MAuditDeltaSeconds is the wall time of one delta audit (incremental or
	// fallen back to a full sweep), update application excluded.
	MAuditDeltaSeconds = "audit.delta.seconds"

	// MIngestDroppedNonDecisioned counts LAR rows the service's ingest
	// parsed and then dropped because their action is neither approved nor
	// denied (internal/server, every LAR route).
	MIngestDroppedNonDecisioned = "ingest.dropped.non_decisioned"

	// HTTP-service metrics (internal/server).
	MHTTPRequests       = "http.requests"
	MHTTPCanceled       = "http.canceled"
	MHTTPTimeouts       = "http.timeouts"
	MHTTPInFlight       = "http.in_flight" // gauge
	MHTTPBodyBytes      = "http.body_bytes"
	MHTTPLatencySeconds = "http.latency_seconds"
	// MHTTPWriteFailed counts response bodies the server failed to write
	// after headers were already out (client gone mid-download, broken
	// pipe); each failure also records an http.write_failed event.
	MHTTPWriteFailed = "http.write_failed"
	// Tenancy middleware rejections: requests carrying no (or an unknown)
	// API key while keys are configured, and requests a tenant's
	// token-bucket rate limit turned away with 429 + Retry-After.
	MHTTPUnauthorized = "http.unauthorized"
	MHTTPRateLimited  = "http.rate_limited"
	// Status-class counters: http.status.2xx, http.status.4xx, ...
	MHTTPStatusPrefix = "http.status."

	// Async audit-job service (internal/jobs). submitted counts accepted
	// jobs only; rejected counts submissions the bounded queue turned away
	// with backpressure (429 + Retry-After). Every accepted job reaches
	// exactly one of completed / failed / canceled, so at any quiet point
	// submitted == completed + failed + canceled and the books balance.
	// retried is never incremented: the manager runs each job once and does
	// not retry. The benchmark still reports it as jobs.retried.
	MJobsSubmitted = "jobs.submitted"
	MJobsCompleted = "jobs.completed"
	MJobsFailed    = "jobs.failed"
	MJobsCanceled  = "jobs.canceled"
	MJobsRetried   = "jobs.retried"
	MJobsRejected  = "jobs.rejected"
	// Gauges: jobs waiting in the bounded queue, and jobs currently
	// running their audit.
	MJobsQueueDepth = "jobs.queue_depth"
	MJobsRunning    = "jobs.running"
	// Histograms: queued-to-terminal wall time per job, and the same
	// per-tenant under jobs.tenant_seconds.<tenant> (the per-tenant series
	// an operator reads to see who is consuming the service).
	MJobsSeconds             = "jobs.seconds"
	MJobsTenantSecondsPrefix = "jobs.tenant_seconds."

	// Tenancy admission rejections (internal/tenant): submissions refused
	// because the tenant's concurrent-job cap or compute budget was
	// exhausted. Distinct from jobs.rejected — these never reached the
	// queue.
	MTenantJobLimitRejections = "tenant.job_limit_rejections"
	MTenantBudgetRejections   = "tenant.budget_rejections"
)

// SecondsBuckets are the default latency-histogram bounds: 100µs to ~2min,
// roughly 3 buckets per decade.
var SecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// BytesBuckets are the default size-histogram bounds: 256 B to 256 MiB in
// powers of four.
var BytesBuckets = []float64{
	1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18,
	1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28,
}

// Collector bundles a metrics registry and an event log. Every method is
// safe on a nil receiver (a no-op), so instrumented code threads an optional
// *Collector without guards and the uninstrumented path stays allocation- and
// branch-cheap.
type Collector struct {
	metrics *Registry
	events  *EventLog
	start   time.Time
}

// NewCollector returns a collector retaining the most recent eventCapacity
// events (<= 0 selects the default of 1024).
func NewCollector(eventCapacity int) *Collector {
	if eventCapacity <= 0 {
		eventCapacity = 1024
	}
	return &Collector{
		metrics: NewRegistry(),
		events:  NewEventLog(eventCapacity),
		start:   time.Now(),
	}
}

// Count adds n to the named counter.
func (c *Collector) Count(name string, n int64) {
	if c != nil {
		c.metrics.Counter(name).Add(n)
	}
}

// Inc adds one to the named counter.
func (c *Collector) Inc(name string) { c.Count(name, 1) }

// AddGauge adjusts the named gauge by delta.
func (c *Collector) AddGauge(name string, delta float64) {
	if c != nil {
		c.metrics.Gauge(name).Add(delta)
	}
}

// ObserveSeconds records a duration in the named histogram under the default
// seconds buckets.
func (c *Collector) ObserveSeconds(name string, d time.Duration) {
	if c != nil {
		c.metrics.Histogram(name, SecondsBuckets).Observe(d.Seconds())
	}
}

// ObserveBytes records a size in the named histogram under the default bytes
// buckets.
func (c *Collector) ObserveBytes(name string, n int64) {
	if c != nil {
		c.metrics.Histogram(name, BytesBuckets).Observe(float64(n))
	}
}

// Event records a structured event.
func (c *Collector) Event(typ, requestID, message string, fields map[string]any) {
	if c != nil {
		c.events.Record(typ, requestID, message, fields)
	}
}

// Events exposes the underlying event log; nil for a nil collector.
func (c *Collector) Events() *EventLog {
	if c == nil {
		return nil
	}
	return c.events
}

// Snapshot exports the current metric values; the zero Snapshot for a nil
// collector.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]HistogramSnapshot{},
		}
	}
	return c.metrics.Snapshot()
}

// Uptime reports how long ago the collector was created; zero for nil.
func (c *Collector) Uptime() time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(c.start)
}
