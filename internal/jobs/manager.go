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
	// Workers is the global bound on audit-engine workers across all jobs:
	// each running job's audit gets max(1, Workers/MaxActiveJobs) of them,
	// so the bound holds whenever MaxActiveJobs <= Workers. 0 means
	// GOMAXPROCS.
	Workers int
	// MaxActiveJobs bounds jobs running concurrently, each holding its
	// input data and its share of Workers. 0 means max(1, Workers/2).
	MaxActiveJobs int
	// QueueDepth bounds the pending-job queue; submissions beyond it are
	// rejected with ErrQueueFull (HTTP 429 + Retry-After upstream). 0
	// means 64.
	QueueDepth int
	// JobTimeout bounds one job's execution; expiry fails the job. 0 means
	// 10 minutes; negative disables.
	JobTimeout time.Duration
	// RetentionLimit bounds how many jobs (including finished ones, whose
	// reports are held for fetching) the manager remembers; the oldest
	// terminal jobs are evicted first. 0 means 1024.
	RetentionLimit int
	// Collector receives the jobs.* service counters, gauges, and events.
	// Nil means a fresh private collector.
	Collector *obs.Collector
	// Clock supplies the submit/start/finish timestamps; nil means
	// time.Now. Injectable so lifecycle tests run on a fake clock,
	// mirroring core.Config.Clock.
	Clock func() time.Time
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
		c.MaxActiveJobs = max(1, c.Workers/2)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	} else if c.JobTimeout < 0 {
		c.JobTimeout = 0
	}
	if c.RetentionLimit <= 0 {
		c.RetentionLimit = 1024
	}
	if c.Collector == nil {
		c.Collector = obs.NewCollector(0)
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Cancellation causes, distinguished so terminalStateFor can tell a user cancel
// (-> canceled) from a timeout (-> failed).
var (
	errCancelRequested = errors.New("jobs: canceled by request")
	errShutdown        = errors.New("jobs: manager shut down")
)

// auditFunc runs one job's audit; core.AuditContext outside tests.
type auditFunc func(context.Context, *partition.Partitioning, core.Config) (*core.Result, error)

// Manager owns the job lifecycle: a bounded queue feeding MaxActiveJobs
// dispatcher goroutines, each running one job's audit at a time.
type Manager struct {
	cfg   Config
	col   *obs.Collector
	audit auditFunc
	root  context.Context
	stop  context.CancelCauseFunc

	queue  chan *job
	dispWG sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	seq      uint64
	draining bool
}

// NewManager starts a manager's dispatcher goroutines; pair it with
// Shutdown.
func NewManager(cfg Config) *Manager {
	return newManager(cfg, core.AuditContext)
}

// newManager is NewManager with the audit call injected, so tests can
// stand a fake in for the engine.
func newManager(cfg Config, audit auditFunc) *Manager {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:   cfg,
		col:   cfg.Collector,
		audit: audit,
		root:  root,
		stop:  stop,
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  make(map[string]*job),
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
	j := &job{
		tenant:  req.Tenant,
		geojson: req.GeoJSON,
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
// running is canceled (terminal state canceled) and anything still queued
// is canceled without starting.
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
		Error:       j.errText,
		Progress: Progress{
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
		"tenant":  j.tenant,
		"state":   string(state),
		"error":   snap.Error,
		"seconds": elapsed.Seconds(),
	})
	if m.cfg.OnTerminal != nil {
		m.cfg.OnTerminal(snap)
	}
}

// runJob is one dispatcher's handling of one dequeued job: partition, one
// audit at the job's share of Workers, render, finalize. Any panic is
// converted to a failed job, so a poisoned input can never take the
// dispatcher down.
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while waiting in the queue; finalize already ran.
		j.mu.Unlock()
		return
	}
	if m.root.Err() != nil {
		// A forced shutdown left this job queued: cancel it unstarted.
		j.mu.Unlock()
		m.finalize(j, StateCanceled, context.Cause(m.root))
		return
	}
	j.state = StateRunning
	j.started = m.cfg.Clock()
	ctx, cancel := context.WithCancelCause(m.root)
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel(nil)
	if m.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
		defer tcancel()
	}

	m.col.AddGauge(obs.MJobsRunning, 1)
	defer m.col.AddGauge(obs.MJobsRunning, -1)
	defer func() {
		if p := recover(); p != nil {
			m.finalize(j, StateFailed, fmt.Errorf("jobs: audit panic: %v", p))
		}
	}()

	acfg := j.req.Audit
	acfg.Collector = j.col
	acfg.Workers = max(1, m.cfg.Workers/m.cfg.MaxActiveJobs)
	part := partition.ByGrid(j.req.Grid, j.req.Obs, partition.Options{Seed: acfg.Seed})
	res, err := m.audit(ctx, part, acfg)
	if err != nil {
		if cause := context.Cause(ctx); cause != nil {
			// Report what stopped the audit, not the engine's ctx.Err().
			err = cause
		}
		m.finalize(j, terminalStateFor(err), err)
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

// terminalStateFor classifies a failed audit: a user cancel or shutdown is
// canceled, everything else (timeouts included) is failed.
func terminalStateFor(err error) State {
	if errors.Is(err, errCancelRequested) || errors.Is(err, errShutdown) {
		return StateCanceled
	}
	return StateFailed
}

// renderReport serializes the audit result in the job's requested format.
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
