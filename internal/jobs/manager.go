package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/report"
)

// Config parameterizes a Manager. The zero value works: every field has a
// serviceable default.
type Config struct {
	// Workers sizes the shard-executor pool — the global bound on audit
	// shards running at once, across all jobs. 0 means GOMAXPROCS.
	Workers int
	// MaxActiveJobs bounds jobs being coordinated concurrently (each holds
	// its input data and fans shards into the shared pool). 0 means
	// max(1, Workers/2).
	MaxActiveJobs int
	// QueueDepth bounds the pending-job queue; submissions beyond it are
	// rejected with ErrQueueFull (HTTP 429 + Retry-After upstream). 0
	// means 64.
	QueueDepth int
	// ShardsPerJob is how many slices each job's candidate-pair space is
	// cut into. More shards mean finer pool interleaving between jobs and
	// lower per-shard memory, at the cost of repeating the index/prepare
	// phases per slice. 0 means 4; 1 disables sharding.
	ShardsPerJob int
	// JobTimeout bounds one job's total execution (all attempts included);
	// expiry fails the job. 0 means 10 minutes; negative disables.
	JobTimeout time.Duration
	// MaxRetries is how many times a transiently failed attempt (see
	// MarkTransient) is re-run before the job fails. 0 means 2; negative
	// disables retries.
	MaxRetries int
	// RetryBaseDelay is the first backoff; attempt k waits
	// RetryBaseDelay << (k-1). 0 means 100ms.
	RetryBaseDelay time.Duration
	// RetentionLimit bounds how many jobs (including finished ones, whose
	// reports are held for fetching) the manager remembers; the oldest
	// terminal jobs are evicted first. 0 means 1024.
	RetentionLimit int
	// Runner executes shards; nil means the in-process engine.
	Runner Runner
	// Collector receives the jobs.* service counters, gauges, and events.
	// Nil means a fresh private collector.
	Collector *obs.Collector
	// Clock supplies timestamps (submit/start/finish, backoff bookkeeping);
	// nil means time.Now. Injectable so lifecycle tests run on a fake
	// clock, mirroring core.Config.Clock.
	Clock func() time.Time
	// Sleep waits out retry backoff; nil means a timer honoring ctx.
	// Injectable so retry tests assert the exponential schedule without
	// real delays.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnTerminal, when non-nil, observes every job reaching a terminal
	// state — the hook the tenancy layer uses to release the tenant's job
	// slot and charge its compute budget with the job's measured pairs.
	// Called outside all manager locks.
	OnTerminal func(Snapshot)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = c.Workers / 2
		if c.MaxActiveJobs < 1 {
			c.MaxActiveJobs = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ShardsPerJob <= 0 {
		c.ShardsPerJob = 4
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	} else if c.JobTimeout < 0 {
		c.JobTimeout = 0
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.RetentionLimit <= 0 {
		c.RetentionLimit = 1024
	}
	if c.Runner == nil {
		c.Runner = InProcess{}
	}
	if c.Collector == nil {
		c.Collector = obs.NewCollector(0)
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Cancellation causes, distinguished so finalize can tell a user cancel
// (-> canceled) from a timeout (-> failed).
var (
	errCancelRequested = errors.New("jobs: canceled by request")
	errShutdown        = errors.New("jobs: manager shut down")
)

// Manager owns the job lifecycle: a bounded queue feeding MaxActiveJobs
// coordinator goroutines, which fan each job's shards into a pool of
// Workers shard executors and merge the results deterministically.
type Manager struct {
	cfg  Config
	col  *obs.Collector
	root context.Context
	stop context.CancelCauseFunc

	queue chan *job
	tasks chan func()

	dispWG sync.WaitGroup
	poolWG sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	seq      uint64
	draining bool
}

// NewManager starts a manager's coordinator and pool goroutines; pair it
// with Shutdown.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:   cfg,
		col:   cfg.Collector,
		root:  root,
		stop:  stop,
		queue: make(chan *job, cfg.QueueDepth),
		tasks: make(chan func()),
		jobs:  make(map[string]*job),
	}
	for w := 0; w < cfg.Workers; w++ {
		m.poolWG.Add(1)
		go func() {
			defer m.poolWG.Done()
			for task := range m.tasks {
				task()
			}
		}()
	}
	for d := 0; d < cfg.MaxActiveJobs; d++ {
		m.dispWG.Add(1)
		go func() {
			defer m.dispWG.Done()
			for j := range m.queue {
				m.col.AddGauge(obs.MJobsQueueDepth, -1)
				m.runJob(j)
			}
		}()
	}
	return m
}

// Collector exposes the manager's metrics sink (useful when the manager
// created its own).
func (m *Manager) Collector() *obs.Collector { return m.col }

// TryAdmit is the cheap backpressure gate: it reports whether a submission
// would be accepted right now, WITHOUT the caller first paying to parse a
// request body. A false result is counted as a rejected submission (it is
// one — the caller is turning the client away), so jobs.rejected remains an
// exact census of backpressure wherever it is detected. Advisory only: the
// queue can fill again between TryAdmit and Submit, and Submit remains the
// authoritative gate.
func (m *Manager) TryAdmit() error {
	m.mu.Lock()
	draining := m.draining
	full := len(m.queue) == cap(m.queue)
	m.mu.Unlock()
	if draining {
		return ErrDraining
	}
	if full {
		m.col.Inc(obs.MJobsRejected)
		m.col.Event("jobs.rejected", "", "queue full", map[string]any{
			"queue_depth": m.cfg.QueueDepth,
		})
		return ErrQueueFull
	}
	return nil
}

// Submit enqueues a job and returns its initial snapshot. It never blocks:
// a full queue returns ErrQueueFull immediately (backpressure), a draining
// manager ErrDraining.
func (m *Manager) Submit(req Request) (Snapshot, error) {
	if len(req.Obs) == 0 {
		return Snapshot{}, fmt.Errorf("jobs: empty observation set")
	}
	if req.Audit.Workers <= 0 {
		// Within a shard the engine runs single-threaded by default; the
		// job layer's parallelism is the shard fan-out itself.
		req.Audit.Workers = 1
	}
	j := &job{
		tenant:  req.Tenant,
		geojson: req.GeoJSON,
		shards:  m.cfg.ShardsPerJob,
		col:     obs.NewCollector(16),
		req:     req,
		state:   StateQueued,
	}
	j.submitted = m.cfg.Clock()

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Snapshot{}, ErrDraining
	}
	m.seq++
	j.id = fmt.Sprintf("job-%08d", m.seq)
	// Snapshot before the send: once queued, a dispatcher may start the job
	// at once, and the caller must see it as submitted (queued).
	snap := m.snapshot(j)
	select {
	case m.queue <- j:
	default:
		m.seq-- // unused ID; keep IDs dense for operators
		m.mu.Unlock()
		m.col.Inc(obs.MJobsRejected)
		m.col.Event("jobs.rejected", "", "queue full", map[string]any{
			"queue_depth": m.cfg.QueueDepth,
		})
		return Snapshot{}, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pruneLocked()
	m.mu.Unlock()

	m.col.Inc(obs.MJobsSubmitted)
	m.col.AddGauge(obs.MJobsQueueDepth, 1)
	m.col.Event("jobs.submitted", j.id, "job queued", map[string]any{
		"tenant": j.tenant,
		"shards": j.shards,
	})
	return snap, nil
}

// pruneLocked evicts the oldest terminal jobs beyond the retention limit.
// Non-terminal jobs are never evicted, so a busy manager may briefly retain
// more than the limit.
func (m *Manager) pruneLocked() {
	for len(m.order) > m.cfg.RetentionLimit {
		evicted := false
		for i, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			term := j.terminal
			j.mu.Unlock()
			if term {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	return m.snapshot(j), true
}

// Result returns a finished job's report bytes and content type; ok is
// false unless the job is done.
func (m *Manager) Result(id string) (data []byte, contentType string, ok bool) {
	m.mu.Lock()
	j, found := m.jobs[id]
	m.mu.Unlock()
	if !found {
		return nil, "", false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, "", false
	}
	return j.result, j.ctype, true
}

// List returns the snapshots of every retained job owned by tenant, in
// submission order.
func (m *Manager) List(tenantName string) []Snapshot {
	m.mu.Lock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; j != nil && j.tenant == tenantName {
			js = append(js, j)
		}
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = m.snapshot(j)
	}
	return out
}

// Cancel requests a job's cancellation: a queued job is canceled
// immediately, a running one has its context canceled and winds down within
// the engine's polling latency. ok is false for unknown IDs; canceling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, found := m.jobs[id]
	m.mu.Unlock()
	if !found {
		return Snapshot{}, false
	}
	j.mu.Lock()
	j.cancelReq = true
	cancel := j.cancel
	queued := j.state == StateQueued
	j.mu.Unlock()
	switch {
	case cancel != nil:
		cancel(errCancelRequested)
	case queued:
		m.finalize(j, StateCanceled, errCancelRequested)
	}
	return m.snapshot(j), true
}

// Shutdown drains the manager: no new submissions are accepted, queued and
// running jobs are given until ctx expires to finish, then anything still
// running is canceled (terminal state canceled) and the pool is torn down.
// Shutdown returns nil on a clean drain, ctx.Err() on a forced one.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return fmt.Errorf("jobs: Shutdown called twice")
	}
	m.draining = true
	close(m.queue)
	m.mu.Unlock()
	m.col.Event("jobs.drain", "", "manager draining", nil)

	done := make(chan struct{})
	go func() {
		m.dispWG.Wait()
		close(m.tasks)
		m.poolWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force: cancel every running job; the engine polls its context
		// every few hundred pairs, so the wind-down is prompt.
		m.stop(errShutdown)
		<-done
		return ctx.Err()
	}
}

// snapshot assembles a job's externally visible status.
func (m *Manager) snapshot(j *job) Snapshot {
	counters := j.col.Snapshot().Counters
	j.mu.Lock()
	defer j.mu.Unlock()
	format := "json"
	if j.geojson {
		format = "geojson"
	}
	return Snapshot{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		Format:      format,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Attempts:    j.attempts,
		Error:       j.errText,
		Progress: Progress{
			ShardsDone:   j.shardDone,
			ShardsTotal:  j.shards,
			PairsScanned: counters[obs.MAuditPairsScanned],
			Candidates:   counters[obs.MAuditCandidates],
			Flagged:      counters[obs.MAuditFlagged],
		},
		ResultBytes: len(j.result),
	}
}

// finalize moves a job to a terminal state exactly once, publishes the
// lifecycle counters and the per-tenant latency histogram, releases the
// job's input data, and fires the OnTerminal hook.
func (m *Manager) finalize(j *job, state State, err error) {
	j.mu.Lock()
	if j.terminal {
		j.mu.Unlock()
		return
	}
	j.terminal = true
	j.state = state
	if err != nil && state != StateDone {
		j.errText = err.Error()
	}
	j.finished = m.cfg.Clock()
	j.cancel = nil
	j.req.Obs = nil // the input is dead weight once the job is terminal
	elapsed := j.finished.Sub(j.submitted)
	j.mu.Unlock()

	switch state {
	case StateDone:
		m.col.Inc(obs.MJobsCompleted)
	case StateFailed:
		m.col.Inc(obs.MJobsFailed)
	case StateCanceled:
		m.col.Inc(obs.MJobsCanceled)
	}
	m.col.ObserveSeconds(obs.MJobsSeconds, elapsed)
	tenantLabel := j.tenant
	if tenantLabel == "" {
		tenantLabel = "anon"
	}
	m.col.ObserveSeconds(obs.MJobsTenantSecondsPrefix+tenantLabel, elapsed)
	snap := m.snapshot(j)
	m.col.Event("jobs.finish", j.id, "job "+string(state), map[string]any{
		"tenant":   j.tenant,
		"state":    string(state),
		"attempts": snap.Attempts,
		"error":    snap.Error,
		"seconds":  elapsed.Seconds(),
	})
	if m.cfg.OnTerminal != nil {
		m.cfg.OnTerminal(snap)
	}
}

// runJob is one coordinator's handling of one dequeued job: attempt (with
// retry/backoff), merge, render, finalize. Any panic escaping the
// coordinator itself is converted to a failed job, so a poisoned input can
// never take the dispatcher down.
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while waiting in the queue; finalize already ran.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = m.cfg.Clock()
	ctx, cancel := context.WithCancelCause(m.root)
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel(nil)
	runCtx := ctx
	var tcancel context.CancelFunc
	if m.cfg.JobTimeout > 0 {
		runCtx, tcancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
		defer tcancel()
	}

	m.col.AddGauge(obs.MJobsRunning, 1)
	defer m.col.AddGauge(obs.MJobsRunning, -1)
	defer func() {
		if p := recover(); p != nil {
			m.finalize(j, StateFailed, fmt.Errorf("jobs: coordinator panic: %v", p))
		}
	}()

	var res *core.Result
	var part *partition.Partitioning
	for attempt := 1; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt
		j.shardDone = 0
		j.mu.Unlock()
		var err error
		part, res, err = m.runAttempt(runCtx, j)
		if err == nil {
			break
		}
		if IsTransient(err) && attempt <= m.cfg.MaxRetries && runCtx.Err() == nil {
			m.col.Inc(obs.MJobsRetried)
			delay := m.cfg.RetryBaseDelay << (attempt - 1)
			m.col.Event("jobs.retry", j.id, "transient failure, backing off", map[string]any{
				"attempt":    attempt,
				"backoff_ms": delay.Milliseconds(),
				"error":      err.Error(),
			})
			if serr := m.cfg.Sleep(runCtx, delay); serr == nil {
				continue
			}
			// Backoff interrupted by cancel/timeout; fall through to the
			// terminal classification with the interrupt's cause.
		}
		m.finalize(j, terminalStateFor(runCtx, err), err)
		return
	}

	data, ctype, err := renderReport(part, j, res)
	if err != nil {
		m.finalize(j, StateFailed, err)
		return
	}
	j.mu.Lock()
	j.result = data
	j.ctype = ctype
	j.mu.Unlock()
	m.finalize(j, StateDone, nil)
}

// terminalStateFor classifies a failed attempt: a user cancel or shutdown
// is canceled, everything else (timeouts included) is failed.
func terminalStateFor(ctx context.Context, err error) State {
	cause := context.Cause(ctx)
	if errors.Is(cause, errCancelRequested) || errors.Is(cause, errShutdown) ||
		errors.Is(err, errCancelRequested) || errors.Is(err, errShutdown) {
		return StateCanceled
	}
	return StateFailed
}

// runAttempt executes one full pass over the job: partition once, fan the
// shard slices into the executor pool, and merge. The first shard error
// cancels its siblings; a panicking shard is converted to an error (the
// pool worker survives).
func (m *Manager) runAttempt(ctx context.Context, j *job) (*partition.Partitioning, *core.Result, error) {
	acfg := j.req.Audit
	acfg.Collector = j.col
	part := partition.ByGrid(j.req.Grid, j.req.Obs, partition.Options{Seed: acfg.Seed})

	shards := j.shards
	results := make([]*core.ShardResult, shards)
	errs := make([]error, shards)
	actx, acancel := context.WithCancelCause(ctx)
	defer acancel(nil)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[s] = fmt.Errorf("jobs: shard %d/%d panicked: %v", s, shards, p)
					acancel(errs[s])
				}
			}()
			if actx.Err() != nil {
				errs[s] = context.Cause(actx)
				return
			}
			sr, err := m.cfg.Runner.RunShard(actx, ShardSpec{
				Part:   part,
				Config: acfg,
				Shard:  s,
				Shards: shards,
			})
			if err != nil {
				errs[s] = err
				acancel(err)
				return
			}
			results[s] = sr
			j.mu.Lock()
			j.shardDone++
			j.mu.Unlock()
		}
		m.tasks <- task
	}
	wg.Wait()
	for s := 0; s < shards; s++ {
		if errs[s] != nil {
			// Report what stopped the attempt — the first shard failure or
			// the job's own cancellation — not the context error a sibling
			// shard returned because of it.
			return nil, nil, context.Cause(actx)
		}
	}
	res, err := core.MergeShards(j.req.Audit, results)
	if err != nil {
		return nil, nil, err
	}
	return part, res, nil
}

// renderReport serializes the merged result in the job's requested format.
func renderReport(part *partition.Partitioning, j *job, res *core.Result) ([]byte, string, error) {
	if j.geojson {
		data, err := report.GeoJSON(part, j.req.Grid, res)
		if err != nil {
			return nil, "", fmt.Errorf("jobs: rendering GeoJSON: %w", err)
		}
		return data, "application/geo+json", nil
	}
	doc := report.Build(part, j.req.Grid, res)
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return nil, "", fmt.Errorf("jobs: rendering JSON: %w", err)
	}
	return buf.Bytes(), "application/json", nil
}
