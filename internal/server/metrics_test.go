package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lcsf/internal/obs"
)

// metricsDoc mirrors the GET /metrics payload for assertions.
type metricsDoc struct {
	UptimeSeconds  float64                               `json:"uptime_seconds"`
	Counters       map[string]int64                      `json:"counters"`
	Gauges         map[string]float64                    `json:"gauges"`
	Histograms     map[string]map[string]json.RawMessage `json:"histograms"`
	EventsRetained int                                   `json:"events_retained"`
}

func getMetrics(t *testing.T, srv http.Handler) metricsDoc {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics content type = %q", ct)
	}
	var doc metricsDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics payload: %v\n%s", err, rec.Body.String())
	}
	return doc
}

// TestMetricsAfterAudit is the acceptance check for the observability layer:
// after one POST /audit, the /metrics snapshot must show non-zero audit
// counters — candidates, gate rejections, Monte-Carlo worlds, null fills —
// plus the request-level metrics the middleware records.
func TestMetricsAfterAudit(t *testing.T) {
	srv := New(Config{})

	before := getMetrics(t, srv)
	if before.Counters[obs.MAuditRuns] != 0 {
		t.Fatalf("fresh server already ran audits: %+v", before.Counters)
	}

	req := httptest.NewRequest("POST", "/audit?cols=30&rows=15&seed=1", larBody(t, 40000, 0.15))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /audit = %d: %s", rec.Code, rec.Body.String())
	}

	// The default config audits with the indexed candidate plan: pairs the
	// gates provably reject are pruned before the cascade (so the
	// window/bounds counters fire instead of the dissimilarity/Eta cascade
	// counters), and every simulated candidate is answered by the null
	// store, which fills each count signature once (misses, mc.worlds); hits
	// need two candidates sharing a signature, so they may stay zero here.
	doc := getMetrics(t, srv)
	for _, name := range []string{
		obs.MAuditRuns,
		obs.MAuditEligible,
		obs.MAuditPairsScanned,
		obs.MAuditCandidates,
		obs.MAuditFlagged,
		obs.MAuditSimRejections,
		obs.MAuditIndexPairsTotal,
		obs.MAuditIndexWindowCandidates,
		obs.MAuditIndexBoundsRejections,
		obs.MMCNullCacheMisses,
		obs.MAuditMCWorlds,
		obs.MHTTPRequests,
	} {
		if doc.Counters[name] == 0 {
			t.Errorf("counter %s = 0 after a real audit", name)
		}
	}
	if doc.Counters[obs.MHTTPStatusPrefix+"2xx"] < 2 {
		t.Errorf("2xx counter = %d", doc.Counters[obs.MHTTPStatusPrefix+"2xx"])
	}
	if doc.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", doc.UptimeSeconds)
	}
	if doc.EventsRetained == 0 {
		t.Error("no events retained after a request")
	}
	if len(doc.Histograms) == 0 {
		t.Error("no histograms in snapshot")
	}
}

func TestDebugVars(t *testing.T) {
	srv := New(Config{})
	req := httptest.NewRequest("GET", "/debug/vars", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", rec.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"goroutines", "memstats", "metrics", "go_version", "uptime_seconds"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("debug vars missing %q", key)
		}
	}
}

func TestDebugEvents(t *testing.T) {
	srv := New(Config{})
	// Generate two requests so the log has entries.
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest("GET", "/healthz", nil)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	req := httptest.NewRequest("GET", "/debug/events", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/events = %d", rec.Code)
	}
	sc := bufio.NewScanner(rec.Body)
	lines := 0
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if ev.Type != "http.request" || ev.RequestID == "" {
			t.Errorf("event %d = %+v", lines, ev)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("event lines = %d, want the 2 prior requests", lines)
	}
}

func TestRequestIDAssigned(t *testing.T) {
	srv := New(Config{})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest("GET", "/healthz", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		id := rec.Header().Get("X-Request-Id")
		if !strings.HasPrefix(id, "req-") {
			t.Fatalf("request id = %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

// TestRequestTimeout drives the per-request deadline through the audit path:
// the audit aborts with DeadlineExceeded and the client receives 503, not a
// 400 blaming its configuration.
func TestRequestTimeout(t *testing.T) {
	col := obs.NewCollector(16)
	srv := New(Config{RequestTimeout: time.Nanosecond, Collector: col})
	req := httptest.NewRequest("POST", "/audit?cols=20&rows=10", larBody(t, 20000, 0.15))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out audit = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if col.Snapshot().Counter(obs.MHTTPTimeouts) != 1 {
		t.Error("timeout not counted")
	}
}

// TestClientDisconnectDropsSilently is the regression test for the
// cancellation bug: when the client goes away mid-audit the handler used to
// answer HTTP 400 "audit: context canceled" into the void, polluting error
// metrics. It must instead drop the request and count it.
func TestClientDisconnectDropsSilently(t *testing.T) {
	col := obs.NewCollector(16)
	srv := New(Config{Collector: col})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest("POST", "/audit?cols=20&rows=10", larBody(t, 20000, 0.15))
	req = req.WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Errorf("disconnected client got a body: %s", rec.Body.String())
	}
	s := col.Snapshot()
	if s.Counter(obs.MHTTPCanceled) != 1 {
		t.Error("client disconnect not counted")
	}
	// The audit engine also records its own cancellation.
	if s.Counter("audit.canceled") != 1 {
		t.Error("audit cancellation not counted")
	}
	// No 4xx must be recorded for a disconnect.
	if s.Counter(obs.MHTTPStatusPrefix+"4xx") != 0 {
		t.Errorf("disconnect recorded as 4xx: %+v", s.Counters)
	}
}
