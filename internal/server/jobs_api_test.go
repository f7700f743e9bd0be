package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/jobs"
	"lcsf/internal/obs"
	"lcsf/internal/tenant"
)

// cheapAudit is a fast base audit config for job-route tests.
func cheapAudit() core.Config {
	acfg := core.DefaultConfig()
	acfg.MCWorlds = 199
	acfg.MinRegionSize = 25
	return acfg
}

// newJobsServer builds a handler around an explicit manager so tests can
// drain it, plus the shared collector for counter assertions.
func newJobsServer(t *testing.T, jcfg jobs.Config, mutate func(*Config)) (http.Handler, *jobs.Manager, *obs.Collector) {
	t.Helper()
	col := obs.NewCollector(256)
	jcfg.Collector = col
	mgr := jobs.NewManager(jcfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("manager shutdown: %v", err)
		}
	})
	cfg := Config{Audit: cheapAudit(), Collector: col, Jobs: mgr}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), mgr, col
}

// do drives one request through the handler.
func do(srv http.Handler, method, url string, body *bytes.Reader, hdr map[string]string) *httptest.ResponseRecorder {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, url, body)
	} else {
		req = httptest.NewRequest(method, url, nil)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// submitJob posts a LAR and returns the accepted job snapshot.
func submitJob(t *testing.T, srv http.Handler, url string, body []byte, hdr map[string]string) jobs.Snapshot {
	t.Helper()
	rec := do(srv, "POST", url, bytes.NewReader(body), hdr)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" || rec.Header().Get("X-Job-Id") != snap.ID ||
		rec.Header().Get("Location") != "/jobs/"+snap.ID {
		t.Fatalf("submit response headers/body inconsistent: %+v %v", snap, rec.Header())
	}
	return snap
}

// pollDone polls the status route until the job is terminal.
func pollDone(t *testing.T, srv http.Handler, id string, hdr map[string]string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(srv, "GET", "/jobs/"+id, nil, hdr)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if terminalState(snap.State) {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Snapshot{}
}

func TestJobRoutesEndToEnd(t *testing.T) {
	srv, _, _ := newJobsServer(t, jobs.Config{Workers: 4}, nil)
	body := larBody(t, 6000, 0.2).Bytes()

	snap := submitJob(t, srv, "/jobs?cols=12&rows=8&seed=7", body, nil)

	// The result is 409 + Retry-After until the job completes.
	if rec := do(srv, "GET", "/jobs/"+snap.ID+"/result", nil, nil); rec.Code == http.StatusConflict {
		if rec.Header().Get("Retry-After") == "" {
			t.Error("409 without Retry-After")
		}
	}

	final := pollDone(t, srv, snap.ID, nil)
	if final.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	rec := do(srv, "GET", "/jobs/"+snap.ID+"/result", nil, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("result = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}

	// The async report must be byte-identical to the synchronous audit of
	// the same body and parameters.
	sync := do(srv, "POST", "/audit?cols=12&rows=8&seed=7", bytes.NewReader(body), nil)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync audit = %d: %s", sync.Code, sync.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), sync.Body.Bytes()) {
		t.Errorf("async report (%d bytes) differs from sync report (%d bytes)",
			rec.Body.Len(), sync.Body.Len())
	}

	// The job shows up in the listing.
	list := do(srv, "GET", "/jobs", nil, nil)
	if list.Code != http.StatusOK || !strings.Contains(list.Body.String(), snap.ID) {
		t.Errorf("list = %d: %s", list.Code, list.Body.String())
	}
}

func TestJobGeoJSONRoute(t *testing.T) {
	srv, _, _ := newJobsServer(t, jobs.Config{Workers: 2}, nil)
	body := larBody(t, 6000, 0.2).Bytes()
	snap := submitJob(t, srv, "/jobs?cols=12&rows=8&seed=7&format=geojson", body, nil)
	if snap.Format != "geojson" {
		t.Errorf("format = %q", snap.Format)
	}
	if final := pollDone(t, srv, snap.ID, nil); final.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	rec := do(srv, "GET", "/jobs/"+snap.ID+"/result", nil, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/geo+json" {
		t.Fatalf("result = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

func TestJobCancelRoute(t *testing.T) {
	// A single dispatcher keeps the second job queued long enough to
	// cancel it deterministically.
	srv, _, _ := newJobsServer(t, jobs.Config{Workers: 1, MaxActiveJobs: 1}, nil)
	body := larBody(t, 6000, 0.2).Bytes()
	a := submitJob(t, srv, "/jobs?cols=12&rows=8", body, nil)
	b := submitJob(t, srv, "/jobs?cols=12&rows=8", body, nil)

	rec := do(srv, "DELETE", "/jobs/"+b.ID, nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", rec.Code, rec.Body.String())
	}
	final := pollDone(t, srv, b.ID, nil)
	if final.State != jobs.StateCanceled && final.State != jobs.StateDone {
		t.Fatalf("state after cancel = %s", final.State)
	}
	if final.State == jobs.StateCanceled {
		if rec := do(srv, "GET", "/jobs/"+b.ID+"/result", nil, nil); rec.Code != http.StatusGone {
			t.Errorf("canceled result = %d, want 410", rec.Code)
		}
	}
	pollDone(t, srv, a.ID, nil)
}

func TestJobBadInputs(t *testing.T) {
	srv, _, _ := newJobsServer(t, jobs.Config{Workers: 1}, nil)
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"garbage csv", "/jobs", "not,a,lar\n1,2,3\n", http.StatusBadRequest},
		{"bad format", "/jobs?format=xml", validHeaderOnly(), http.StatusBadRequest},
		{"bad cols", "/jobs?cols=zero", validHeaderOnly(), http.StatusBadRequest},
		{"nan epsilon", "/jobs?epsilon=NaN", validHeaderOnly(), http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := do(srv, "POST", c.url, bytes.NewReader([]byte(c.body)), nil)
		if rec.Code != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body.String())
		}
	}
	if rec := do(srv, "GET", "/jobs/job-00009999", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", rec.Code)
	}
	if rec := do(srv, "GET", "/jobs/job-00009999/result", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown result = %d, want 404", rec.Code)
	}
	if rec := do(srv, "DELETE", "/jobs/job-00009999", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown cancel = %d, want 404", rec.Code)
	}
}

// TestNonFiniteParamsRejected is the regression test for NaN/Inf query
// floats: they parse as valid float64s but must be 400s, on both the
// synchronous and async routes.
func TestNonFiniteParamsRejected(t *testing.T) {
	srv := newTestServer()
	cases := []struct {
		name string
		url  string
	}{
		{"nan epsilon", "/audit?epsilon=NaN"},
		{"inf alpha", "/audit?alpha=Inf"},
		{"plus inf delta", "/audit?delta=%2BInf"},
		{"minus inf eta", "/audit?eta=-Inf"},
		{"lowercase inf", "/audit?epsilon=inf"},
		{"nan mixed case", "/audit?alpha=nan"},
		{"geojson nan", "/audit/geojson?epsilon=NaN"},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", c.url, strings.NewReader(validHeaderOnly()))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", c.name, rec.Code, rec.Body.String())
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil ||
			!strings.Contains(e["error"], "finite") {
			t.Errorf("%s: error = %q, want a finite-number message", c.name, e["error"])
		}
	}
}

// TestNonFiniteLARRejected is the regression test for NaN/Inf values in a
// LAR body: strconv.ParseFloat accepts them, so ingest must refuse them with
// a 400 naming the row and column, on the synchronous, GeoJSON and async
// routes alike, and answer promptly instead of auditing.
func TestNonFiniteLARRejected(t *testing.T) {
	srv, _, _ := newJobsServer(t, jobs.Config{Workers: 1}, nil)
	const header = "id,lon,lat,tract,income,minority,action\n"
	const good = "1,-100,40,0,50000,false,1\n2,-90,35,0,61000,true,3\n"
	bodies := []struct {
		name, body, want string
	}{
		{"nan income", header + good + "3,-95,38,0,NaN,false,1\n", `row 2 column "income"`},
		{"plus inf lon", header + good + "3,+Inf,38,0,52000,false,1\n", `row 2 column "lon"`},
		{"minus inf lat", header + "1,-100,-Inf,0,50000,false,1\n" + good, `row 0 column "lat"`},
	}
	for _, route := range []string{"/audit", "/audit/geojson", "/jobs"} {
		for _, b := range bodies {
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- do(srv, "POST", route, bytes.NewReader([]byte(b.body)), nil) }()
			var rec *httptest.ResponseRecorder
			select {
			case rec = <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s %s: no response within 30s", route, b.name)
			}
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d, want 400 (%s)", route, b.name, rec.Code, rec.Body.String())
				continue
			}
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil ||
				!strings.Contains(e["error"], b.want) || !strings.Contains(e["error"], "non-finite") {
				t.Errorf("%s %s: error = %q, want it to name %s as non-finite", route, b.name, e["error"], b.want)
			}
		}
	}
}

// TestNonDecisionedDropsCounted sends a LAR with k rows that are neither
// approved nor denied to every LAR route and checks that
// ingest.dropped.non_decisioned rises by k each time.
func TestNonDecisionedDropsCounted(t *testing.T) {
	srv, _, _ := newJobsServer(t, jobs.Config{Workers: 1}, nil)
	const k = 3
	body := "id,lon,lat,tract,income,minority,action\n" +
		"1,-100,40,0,50000,false,1\n2,-90,35,0,61000,true,3\n" +
		"3,-95,38,0,52000,false,2\n4,-95,38,0,52000,true,4\n5,-91,36,0,48000,false,5\n"
	for _, route := range []string{"/audit", "/audit/geojson", "/jobs"} {
		before := getMetrics(t, srv).Counters[obs.MIngestDroppedNonDecisioned]
		rec := do(srv, "POST", route, bytes.NewReader([]byte(body)), nil)
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			t.Fatalf("%s: status %d: %s", route, rec.Code, rec.Body.String())
		}
		if got := getMetrics(t, srv).Counters[obs.MIngestDroppedNonDecisioned] - before; got != k {
			t.Errorf("%s: %s rose by %d, want %d", route, obs.MIngestDroppedNonDecisioned, got, k)
		}
	}
}

// failingWriter errors on every body write, simulating a client that hung up
// after headers went out.
type failingWriter struct {
	h http.Header
}

func (f *failingWriter) Header() http.Header        { return f.h }
func (f *failingWriter) Write([]byte) (int, error)  { return 0, errors.New("broken pipe") }
func (f *failingWriter) WriteHeader(statusCode int) {}

// TestWriteFailureRecorded is the regression test for the once-silent
// WriteJSON error: a failed report write must increment http.write_failed
// and leave a structured event.
func TestWriteFailureRecorded(t *testing.T) {
	col := obs.NewCollector(64)
	srv := New(Config{Audit: cheapAudit(), Collector: col})
	req := httptest.NewRequest("POST", "/audit", strings.NewReader(validHeaderOnly()))
	srv.ServeHTTP(&failingWriter{h: make(http.Header)}, req)

	if got := col.Snapshot().Counters[obs.MHTTPWriteFailed]; got != 1 {
		t.Errorf("http.write_failed = %d, want 1", got)
	}
	var events bytes.Buffer
	if ev := col.Events(); ev != nil {
		if err := ev.WriteJSONL(&events); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(events.String(), "http.write_failed") {
		t.Errorf("no http.write_failed event: %s", events.String())
	}
}

func TestTenancyAuthAndIsolation(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Limits{}, nil)
	reg.AddKey("k-acme", "acme")
	reg.AddKey("k-globex", "globex")
	srv, _, col := newJobsServer(t, jobs.Config{Workers: 2}, func(c *Config) {
		c.Tenants = reg
	})
	body := larBody(t, 6000, 0.2).Bytes()
	acme := map[string]string{"X-API-Key": "k-acme"}
	globex := map[string]string{"Authorization": "Bearer k-globex"}

	// No key and unknown key are both 401; open routes stay open.
	if rec := do(srv, "POST", "/jobs", bytes.NewReader(body), nil); rec.Code != http.StatusUnauthorized {
		t.Errorf("keyless submit = %d, want 401", rec.Code)
	}
	if rec := do(srv, "POST", "/audit", bytes.NewReader(body), map[string]string{"X-API-Key": "wrong"}); rec.Code != http.StatusUnauthorized {
		t.Errorf("wrong key audit = %d, want 401", rec.Code)
	}
	if rec := do(srv, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz behind auth = %d", rec.Code)
	}
	if rec := do(srv, "GET", "/metrics", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("metrics behind auth = %d", rec.Code)
	}
	if got := col.Snapshot().Counters[obs.MHTTPUnauthorized]; got != 2 {
		t.Errorf("http.unauthorized = %d, want 2", got)
	}

	// acme's job is invisible to globex — 404, not 403, so existence leaks
	// nothing.
	snap := submitJob(t, srv, "/jobs?cols=12&rows=8", body, acme)
	if rec := do(srv, "GET", "/jobs/"+snap.ID, nil, globex); rec.Code != http.StatusNotFound {
		t.Errorf("cross-tenant status = %d, want 404", rec.Code)
	}
	if rec := do(srv, "DELETE", "/jobs/"+snap.ID, nil, globex); rec.Code != http.StatusNotFound {
		t.Errorf("cross-tenant cancel = %d, want 404", rec.Code)
	}
	if rec := do(srv, "GET", "/jobs", nil, globex); strings.Contains(rec.Body.String(), snap.ID) {
		t.Error("cross-tenant listing leaks job IDs")
	}
	final := pollDone(t, srv, snap.ID, acme)
	if final.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if rec := do(srv, "GET", "/jobs/"+snap.ID+"/result", nil, globex); rec.Code != http.StatusNotFound {
		t.Errorf("cross-tenant result = %d, want 404", rec.Code)
	}
	if rec := do(srv, "GET", "/jobs/"+snap.ID+"/result", nil, acme); rec.Code != http.StatusOK {
		t.Errorf("owner result = %d", rec.Code)
	}
}

func TestTenancyRateLimitHTTP(t *testing.T) {
	now := time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)
	reg := tenant.NewRegistry(tenant.Limits{}, func() time.Time { return now })
	reg.AddKey("k-acme", "acme")
	reg.AddKey("k-globex", "globex")
	reg.SetLimits("acme", tenant.Limits{RatePerSec: 1, Burst: 2})
	srv, _, col := newJobsServer(t, jobs.Config{Workers: 1}, func(c *Config) {
		c.Tenants = reg
	})
	acme := map[string]string{"X-API-Key": "k-acme"}
	globex := map[string]string{"X-API-Key": "k-globex"}

	for i := 0; i < 2; i++ {
		if rec := do(srv, "GET", "/jobs", nil, acme); rec.Code != http.StatusOK {
			t.Fatalf("burst request %d = %d", i, rec.Code)
		}
	}
	rec := do(srv, "GET", "/jobs", nil, acme)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := col.Snapshot().Counters[obs.MHTTPRateLimited]; got != 1 {
		t.Errorf("http.rate_limited = %d, want 1", got)
	}
	// Unlimited tenants are unaffected by acme's exhaustion.
	for i := 0; i < 5; i++ {
		if rec := do(srv, "GET", "/jobs", nil, globex); rec.Code != http.StatusOK {
			t.Errorf("globex request %d = %d", i, rec.Code)
		}
	}
}

func TestTenancyJobLimitAndBudgetHTTP(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Limits{}, nil)
	reg.AddKey("k-acme", "acme")
	reg.SetLimits("acme", tenant.Limits{MaxActiveJobs: 1})
	// The terminal hook frees a job's slot and charges its budget. A job's
	// state reads done before its hook runs, and a small audit can finish
	// before the next request arrives, so the hook waits for gate and
	// signals charged: the first job cannot free its slot before the
	// over-limit submission is checked, and the test waits for each hook
	// before relying on its effect.
	gate := make(chan struct{})
	charged := make(chan struct{}, 2) // one send per admitted job
	var srv http.Handler
	var col *obs.Collector
	srv, _, col = newJobsServer(t, jobs.Config{Workers: 1, MaxActiveJobs: 1}, func(c *Config) {
		c.Tenants = reg
		c.Jobs = nil // rebuild below with the terminal hook
		jcfg := jobs.Config{
			Workers: 1, MaxActiveJobs: 1, Collector: c.Collector,
			OnTerminal: func(s jobs.Snapshot) {
				<-gate
				reg.FinishJob(s.Tenant, float64(s.Progress.PairsScanned))
				charged <- struct{}{}
			},
		}
		c.Jobs = jobs.NewManager(jcfg)
	})
	// Registered after the server's cleanup, so it runs first: a failure
	// before the gate opens must not leave the manager's shutdown waiting
	// on a blocked hook.
	var opened sync.Once
	openGate := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	body := larBody(t, 6000, 0.2).Bytes()
	acme := map[string]string{"X-API-Key": "k-acme"}

	// One admitted job fills the concurrency cap; the second submission is
	// rejected up front.
	snap := submitJob(t, srv, "/jobs?cols=12&rows=8", body, acme)
	rec := do(srv, "POST", "/jobs?cols=12&rows=8", bytes.NewReader(body), acme)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over job limit = %d: %s", rec.Code, rec.Body.String())
	}
	if got := col.Snapshot().Counters[obs.MTenantJobLimitRejections]; got != 1 {
		t.Errorf("tenant.job_limit_rejections = %d, want 1", got)
	}
	openGate()
	pollDone(t, srv, snap.ID, acme)
	<-charged

	// The finished job released its slot (via the terminal hook), so the
	// next submission passes the job cap. Now exhaust the compute budget:
	// post-paid charging drives the balance negative, blocking admission.
	reg.SetLimits("acme", tenant.Limits{ComputeBudget: 1})
	snap2 := submitJob(t, srv, "/jobs?cols=12&rows=8", body, acme)
	final := pollDone(t, srv, snap2.ID, acme)
	if final.State != jobs.StateDone {
		t.Fatalf("budget job = %s (%s)", final.State, final.Error)
	}
	<-charged
	// Post-paid charging drove the balance negative: admission is blocked.
	rec = do(srv, "POST", "/jobs?cols=12&rows=8", bytes.NewReader(body), acme)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over budget = %d: %s", rec.Code, rec.Body.String())
	}
	if got := col.Snapshot().Counters[obs.MTenantBudgetRejections]; got != 1 {
		t.Errorf("tenant.budget_rejections = %d, want 1", got)
	}
}

func TestAuditLogOverHTTP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	alog, err := tenant.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Limits{}, nil)
	reg.AddKey("k-acme", "acme")
	srv, _, _ := newJobsServer(t, jobs.Config{Workers: 1}, func(c *Config) {
		c.Tenants = reg
		c.AuditLog = alog
	})
	body := larBody(t, 6000, 0.2).Bytes()
	snap := submitJob(t, srv, "/jobs?cols=12&rows=8", body, map[string]string{"X-API-Key": "k-acme"})
	pollDone(t, srv, snap.ID, map[string]string{"X-API-Key": "k-acme"})

	if err := alog.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("audit log lines = %d, want the submit and the poll at least", len(lines))
	}
	var first tenant.Entry
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Method != "POST" || first.Path != "/jobs" || first.Tenant != "acme" ||
		first.Status != http.StatusAccepted || first.JobID != snap.ID || first.RequestID == "" {
		t.Errorf("submit entry = %+v", first)
	}
}

// terminalState reports whether a job state is final.
func terminalState(s jobs.State) bool {
	return s == jobs.StateDone || s == jobs.StateFailed || s == jobs.StateCanceled
}

// TestInvalidConfigRejectedBeforeAdmission checks a parameter that fails
// core.Config.Validate is a 400 on POST /jobs, with the text POST /audit
// gives, before the job takes a tenant slot, enters the queue or can be
// charged: no job exists, no terminal hook fires, and a valid submission
// still fits under a one-job cap.
func TestInvalidConfigRejectedBeforeAdmission(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Limits{}, nil)
	reg.AddKey("k-acme", "acme")
	reg.SetLimits("acme", tenant.Limits{MaxActiveJobs: 1})
	var terminal atomic.Int64
	var mgr *jobs.Manager
	srv, _, col := newJobsServer(t, jobs.Config{Workers: 1}, func(c *Config) {
		c.Tenants = reg
		// Rebuilt with a terminal hook that frees the slot and charges
		// the budget, as lcsf-serve wires it.
		mgr = jobs.NewManager(jobs.Config{
			Workers: 1, Collector: c.Collector,
			OnTerminal: func(s jobs.Snapshot) {
				terminal.Add(1)
				reg.FinishJob(s.Tenant, float64(s.Progress.PairsScanned))
			},
		})
		c.Jobs = mgr
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("manager shutdown: %v", err)
		}
	})
	body := larBody(t, 2000, 0.2).Bytes()
	acme := map[string]string{"X-API-Key": "k-acme"}
	errText := func(rec *httptest.ResponseRecorder) string {
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("error payload: %v (%s)", err, rec.Body.String())
		}
		return e["error"]
	}

	syncRec := do(srv, "POST", "/audit?alpha=2", bytes.NewReader(body), acme)
	jobRec := do(srv, "POST", "/jobs?alpha=2", bytes.NewReader(body), acme)
	if syncRec.Code != http.StatusBadRequest || jobRec.Code != http.StatusBadRequest {
		t.Fatalf("alpha=2: /audit %d, /jobs %d, want 400 both (%s)", syncRec.Code, jobRec.Code, jobRec.Body.String())
	}
	if s, j := errText(syncRec), errText(jobRec); s != j || !strings.Contains(j, "Alpha 2 outside (0,1)") {
		t.Errorf("error texts differ or miss the cause: /audit %q, /jobs %q", s, j)
	}
	if jobs := mgr.List("acme"); len(jobs) != 0 {
		t.Errorf("rejected submission left %d jobs", len(jobs))
	}
	if got := col.Snapshot().Counters[obs.MJobsSubmitted]; got != 0 {
		t.Errorf("jobs.submitted = %d, want 0", got)
	}
	if n := terminal.Load(); n != 0 {
		t.Errorf("terminal hook ran %d times for a rejected submission", n)
	}
	snap := submitJob(t, srv, "/jobs?cols=12&rows=8", body, acme)
	if final := pollDone(t, srv, snap.ID, acme); final.State != jobs.StateDone {
		t.Fatalf("valid job = %s (%s)", final.State, final.Error)
	}
	if n := len(mgr.List("acme")); n != 1 {
		t.Errorf("tenant has %d jobs, want only the valid one", n)
	}
}
