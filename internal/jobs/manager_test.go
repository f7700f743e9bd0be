package jobs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lcsf/internal/census"
	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/report"
	"lcsf/internal/stats"
)

// testRequest builds a small but non-trivial job request: a few thousand
// decisioned applications with planted bias on a coarse grid, audited with a
// cheap Monte-Carlo budget.
func testRequest(t *testing.T) Request {
	t.Helper()
	model := census.Generate(census.Config{NumTracts: 300, Seed: 11})
	recs := hmda.Generate(model, hmda.Lender{Name: "T", Decisioned: 6000, Bias: 0.2, Seed: 5})
	acfg := core.DefaultConfig()
	acfg.MCWorlds = 199
	acfg.MinRegionSize = 25
	acfg.Seed = 7
	return Request{
		Obs:   hmda.ToObservations(recs),
		Grid:  geo.NewGrid(geo.ContinentalUS, 12, 8),
		Audit: acfg,
	}
}

// waitTerminal polls until the job leaves the running states.
func waitTerminal(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if terminal(snap.State) {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Snapshot{}
}

// jobCollector returns a job's private collector, where its audit publishes
// the engine's counters.
func jobCollector(t *testing.T, m *Manager, id string) *obs.Collector {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		t.Fatalf("job %s not retained", id)
	}
	return j.col
}

func shutdownClean(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestJobLifecycle(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var clockMu sync.Mutex
	now := base
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
	m := NewManager(Config{Workers: 4, Clock: clock})
	defer shutdownClean(t, m)

	req := testRequest(t)
	snap, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || snap.State != StateQueued {
		t.Fatalf("initial snapshot = %+v", snap)
	}
	if snap.SubmittedAt.Before(base) {
		t.Errorf("SubmittedAt %v not from injected clock", snap.SubmittedAt)
	}

	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q)", final.State, final.Error)
	}
	if runs := jobCollector(t, m, snap.ID).Snapshot().Counters[obs.MAuditRuns]; runs != 1 {
		t.Errorf("audit.runs = %d, want one audit per job", runs)
	}
	if final.Progress.PairsScanned == 0 {
		t.Error("no pairs scanned recorded")
	}
	if final.FinishedAt.Before(final.StartedAt) || final.StartedAt.Before(final.SubmittedAt) {
		t.Errorf("timestamps out of order: %+v", final)
	}
	if final.ResultBytes == 0 {
		t.Error("ResultBytes = 0 for a done job")
	}

	data, ctype, ok := m.Result(snap.ID)
	if !ok || ctype != "application/json" || len(data) != final.ResultBytes {
		t.Fatalf("Result: ok=%v ctype=%q len=%d", ok, ctype, len(data))
	}

	// The async result, audited with the job's share of Workers, must be
	// byte-identical to a synchronous single-worker audit of the same
	// request.
	req2 := testRequest(t)
	req2.Audit.Workers = 1
	part := partition.ByGrid(req2.Grid, req2.Obs, partition.Options{Seed: req2.Audit.Seed})
	res, err := core.AuditContext(context.Background(), part, req2.Audit)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.Build(part, req2.Grid, res).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("job report differs from synchronous audit (%d vs %d bytes)",
			len(data), want.Len())
	}

	counters := m.col.Snapshot().Counters
	if counters[obs.MJobsSubmitted] != 1 || counters[obs.MJobsCompleted] != 1 {
		t.Errorf("counters: submitted=%d completed=%d",
			counters[obs.MJobsSubmitted], counters[obs.MJobsCompleted])
	}
}

func TestJobGeoJSONFormat(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer shutdownClean(t, m)
	req := testRequest(t)
	req.GeoJSON = true
	snap, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	data, ctype, ok := m.Result(snap.ID)
	if !ok || ctype != "application/geo+json" {
		t.Fatalf("Result: ok=%v ctype=%q", ok, ctype)
	}
	if !bytes.Contains(data, []byte("FeatureCollection")) {
		t.Error("GeoJSON result missing FeatureCollection")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer shutdownClean(t, m)
	if _, err := m.Submit(Request{}); err == nil {
		t.Error("empty observation set accepted")
	}
}

// gateAudit blocks every audit until released, then runs the real engine.
// It honors context cancellation while gated.
type gateAudit struct {
	started chan struct{} // one receive per audit that reached the gate
	release chan struct{} // close to let all audits proceed
}

func newGateAudit() *gateAudit {
	return &gateAudit{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateAudit) audit(ctx context.Context, part *partition.Partitioning, cfg core.Config) (*core.Result, error) {
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	return core.AuditContext(ctx, part, cfg)
}

func TestQueueFullBackpressure(t *testing.T) {
	gate := newGateAudit()
	m := newManager(Config{Workers: 1, MaxActiveJobs: 1, QueueDepth: 1}, gate.audit)
	defer shutdownClean(t, m)

	a, err := m.Submit(testRequest(t)) // dequeued by the dispatcher, blocked at the gate
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	b, err := m.Submit(testRequest(t)) // sits in the queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testRequest(t)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	counters := m.col.Snapshot().Counters
	if counters[obs.MJobsRejected] != 1 {
		t.Errorf("jobs.rejected = %d, want 1", counters[obs.MJobsRejected])
	}

	close(gate.release)
	for _, id := range []string{a.ID, b.ID} {
		if final := waitTerminal(t, m, id); final.State != StateDone {
			t.Errorf("job %s = %s (%s)", id, final.State, final.Error)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := newGateAudit()
	m := newManager(Config{Workers: 1, MaxActiveJobs: 1, QueueDepth: 4}, gate.audit)
	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	b, err := m.Submit(testRequest(t)) // still queued behind a
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := m.Cancel(b.ID)
	if !ok || snap.State != StateCanceled {
		t.Fatalf("cancel queued: ok=%v state=%s", ok, snap.State)
	}
	close(gate.release)
	if final := waitTerminal(t, m, a.ID); final.State != StateDone {
		t.Errorf("job a = %s", final.State)
	}
	// The canceled job must never run.
	if final, _ := m.Get(b.ID); final.State != StateCanceled || !final.StartedAt.IsZero() {
		t.Errorf("job b = %s started=%v", final.State, final.StartedAt)
	}
	shutdownClean(t, m)
}

func TestCancelRunningJob(t *testing.T) {
	gate := newGateAudit()
	m := newManager(Config{Workers: 1}, gate.audit)
	defer shutdownClean(t, m)
	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started // the audit is gated: the job is running
	if _, ok := m.Cancel(a.ID); !ok {
		t.Fatal("cancel running returned !ok")
	}
	final := waitTerminal(t, m, a.ID)
	if final.State != StateCanceled {
		t.Errorf("state = %s, want canceled", final.State)
	}
	if _, _, ok := m.Result(a.ID); ok {
		t.Error("canceled job has a result")
	}
}

func TestCancelUnknownJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer shutdownClean(t, m)
	if _, ok := m.Cancel("job-00000099"); ok {
		t.Error("canceling unknown job reported ok")
	}
}

func TestAuditPanicFailsJobNotDispatcher(t *testing.T) {
	var once sync.Once
	audit := func(ctx context.Context, part *partition.Partitioning, cfg core.Config) (*core.Result, error) {
		once.Do(func() { panic("poisoned audit") })
		return core.AuditContext(ctx, part, cfg)
	}
	// One dispatcher, so the job after the panic runs on the dispatcher
	// that recovered it.
	m := newManager(Config{Workers: 1, MaxActiveJobs: 1}, audit)
	defer shutdownClean(t, m)

	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, a.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "poisoned audit") {
		t.Fatalf("state = %s error = %q", final.State, final.Error)
	}

	b, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, b.ID); final.State != StateDone {
		t.Errorf("job after panic = %s (%s)", final.State, final.Error)
	}
	counters := m.col.Snapshot().Counters
	if counters[obs.MJobsFailed] != 1 || counters[obs.MJobsCompleted] != 1 {
		t.Errorf("failed=%d completed=%d", counters[obs.MJobsFailed], counters[obs.MJobsCompleted])
	}
	if gauges := m.col.Snapshot().Gauges; gauges[obs.MJobsRunning] != 0 {
		t.Errorf("jobs.running = %v after both jobs ended", gauges[obs.MJobsRunning])
	}
}

func TestJobTimeout(t *testing.T) {
	gate := newGateAudit() // never released: the job hangs until the timeout
	m := newManager(Config{Workers: 1, JobTimeout: 50 * time.Millisecond}, gate.audit)
	defer shutdownClean(t, m)
	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, a.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed (timeout is not a user cancel)", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("error = %q", final.Error)
	}
}

func TestGracefulDrain(t *testing.T) {
	m := NewManager(Config{Workers: 4, MaxActiveJobs: 2})
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		snap, err := m.Submit(testRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		snap, ok := m.Get(id)
		if !ok || snap.State != StateDone {
			t.Errorf("job %s after drain: ok=%v state=%s (%s)", id, ok, snap.State, snap.Error)
		}
	}
	if _, err := m.Submit(testRequest(t)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown = %v, want ErrDraining", err)
	}
	if err := m.Shutdown(ctx); err == nil {
		t.Error("second Shutdown must error")
	}
}

func TestForcedShutdownCancelsRunning(t *testing.T) {
	gate := newGateAudit() // never released
	m := newManager(Config{Workers: 1, MaxActiveJobs: 1}, gate.audit)
	a, err := m.Submit(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	// Two more jobs wait in the queue behind the blocked one.
	var queued []string
	for i := 0; i < 2; i++ {
		snap, err := m.Submit(testRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, snap.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown = %v, want DeadlineExceeded", err)
	}
	snap, ok := m.Get(a.ID)
	if !ok || snap.State != StateCanceled {
		t.Errorf("job after forced shutdown: ok=%v state=%s", ok, snap.State)
	}
	// The queued jobs are canceled without ever starting.
	for _, id := range queued {
		snap, ok := m.Get(id)
		if !ok || snap.State != StateCanceled || !snap.StartedAt.IsZero() {
			t.Errorf("queued job %s after forced shutdown: ok=%v state=%s started=%v",
				id, ok, snap.State, snap.StartedAt)
		}
	}
	if n := len(gate.started); n != 0 {
		t.Errorf("%d queued jobs reached the audit after a forced shutdown", n)
	}
}

func TestListAndRetention(t *testing.T) {
	m := NewManager(Config{Workers: 2, RetentionLimit: 2})
	defer shutdownClean(t, m)
	var last string
	for i := 0; i < 4; i++ {
		req := testRequest(t)
		req.Tenant = "acme"
		snap, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		last = snap.ID
		waitTerminal(t, m, snap.ID)
	}
	got := m.List("acme")
	if len(got) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(got))
	}
	if got[len(got)-1].ID != last {
		t.Errorf("newest retained = %s, want %s", got[len(got)-1].ID, last)
	}
	if other := m.List("globex"); len(other) != 0 {
		t.Errorf("tenant isolation: globex sees %d jobs", len(other))
	}
}

func TestTerminalHookFires(t *testing.T) {
	var mu sync.Mutex
	var seen []Snapshot
	m := NewManager(Config{
		Workers: 2,
		OnTerminal: func(s Snapshot) {
			mu.Lock()
			seen = append(seen, s)
			mu.Unlock()
		},
	})
	defer shutdownClean(t, m)
	req := testRequest(t)
	req.Tenant = "acme"
	snap, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, snap.ID)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].ID != snap.ID || seen[0].Tenant != "acme" {
		t.Fatalf("hook calls = %+v", seen)
	}
	if seen[0].Progress.PairsScanned == 0 {
		t.Error("hook snapshot missing compute usage")
	}
}

// TestJobWorkerShare pins the engine workers a job's audit receives: its
// share of the manager's Workers bound, whatever the request asked for,
// through exactly one audit call per job.
func TestJobWorkerShare(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{Workers: 8, MaxActiveJobs: 4}, 2},
		{Config{Workers: 2}, 2}, // MaxActiveJobs defaults to Workers/2 = 1
		{Config{Workers: 1}, 1},
		{Config{Workers: 2, MaxActiveJobs: 4}, 1},
	}
	for _, c := range cases {
		var mu sync.Mutex
		var got []int
		audit := func(ctx context.Context, part *partition.Partitioning, cfg core.Config) (*core.Result, error) {
			mu.Lock()
			got = append(got, cfg.Workers)
			mu.Unlock()
			return core.AuditContext(ctx, part, cfg)
		}
		m := newManager(c.cfg, audit)
		for _, reqWorkers := range []int{0, 64} {
			req := testRequest(t)
			req.Audit.Workers = reqWorkers
			snap, err := m.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if final := waitTerminal(t, m, snap.ID); final.State != StateDone {
				t.Fatalf("%+v: state = %s (%s)", c.cfg, final.State, final.Error)
			}
		}
		shutdownClean(t, m)
		if len(got) != 2 || got[0] != c.want || got[1] != c.want {
			t.Errorf("Workers=%d MaxActiveJobs=%d: audits ran with workers %v, want one call per job at %d",
				c.cfg.Workers, c.cfg.MaxActiveJobs, got, c.want)
		}
	}
}

// denseRequest lays out regions one-row grid cells of pop applications
// each, protected shares alternating 0.2/0.8, under an exhaustive pair
// plan: an audit of regions² / 2 pairs. At 6,000 regions of 30 that is 18M
// pairs, about 3 s on one engine worker of a 2-vCPU x86-64 host.
func denseRequest(regions, pop int) Request {
	rng := stats.NewRNG(17)
	obsv := make([]partition.Observation, 0, regions*pop)
	for cell := 0; cell < regions; cell++ {
		protected := 0.2 + 0.6*float64(cell%2)
		for i := 0; i < pop; i++ {
			obsv = append(obsv, partition.Observation{
				Loc:       geo.Pt(float64(cell)+0.5, 0.5),
				Positive:  rng.Bernoulli(0.62),
				Protected: rng.Bernoulli(protected),
				Income:    60000 + 12000*rng.NormFloat64(),
			})
		}
	}
	acfg := core.DefaultConfig()
	acfg.MinRegionSize = pop
	acfg.CandidateGen = core.CandidateDense
	return Request{
		Obs:   obsv,
		Grid:  geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(float64(regions), 1)), regions, 1),
		Audit: acfg,
	}
}

// TestCancelStopsRealEngine cancels a job whose audit on the real engine
// would take seconds, and demands the engine stop within a second: on the
// jobs path, cancellation bounds CPU.
func TestCancelStopsRealEngine(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer shutdownClean(t, m)
	snap, err := m.Submit(denseRequest(6000, 30))
	if err != nil {
		t.Fatal(err)
	}
	col := jobCollector(t, m, snap.ID)
	// Wait for the engine itself to start: audit.runs counts audit starts.
	deadline := time.Now().Add(30 * time.Second)
	for col.Snapshot().Counters[obs.MAuditRuns] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("audit never started")
		}
		time.Sleep(time.Millisecond)
	}
	canceled := time.Now()
	if _, ok := m.Cancel(snap.ID); !ok {
		t.Fatal("cancel returned !ok")
	}
	var final Snapshot
	for {
		final, _ = m.Get(snap.ID)
		if terminal(final.State) || time.Since(canceled) > time.Second {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if final.State != StateCanceled {
		t.Fatalf("state %s %v after cancel, want canceled within 1s", final.State, time.Since(canceled))
	}
	if n := col.Snapshot().Counters[obs.MAuditCanceled]; n != 1 {
		t.Errorf("audit.canceled = %d, want 1", n)
	}
	if n := col.Snapshot().Counters[obs.MAuditPairsScanned]; n != 0 {
		t.Errorf("audit.pairs_scanned = %d: the canceled audit published a finished funnel", n)
	}
}

// terminal reports whether a job state is final.
func terminal(s State) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}
