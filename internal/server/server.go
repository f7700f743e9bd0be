// Package server exposes the LC-SF audit as an HTTP service: POST a Loan
// Application Register CSV, receive the audit report as JSON or the flagged
// regions as GeoJSON. The service is stateless — every request carries its
// own data — so it scales horizontally behind any proxy. Every request runs
// under the observability middleware (request IDs, latency/size histograms,
// structured events, per-request timeout), and the collector's state is
// served back on GET /metrics and GET /debug/vars.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/jobs"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/report"
	"lcsf/internal/table"
	"lcsf/internal/tenant"
)

// Config parameterizes the service.
type Config struct {
	// MaxBodyBytes bounds request bodies; 0 means 256 MiB.
	MaxBodyBytes int64
	// Audit is the base audit configuration; query parameters override its
	// thresholds per request. The zero value means core.DefaultConfig.
	Audit core.Config
	// Collector receives request metrics, audit counters, and events, and
	// backs the /metrics and /debug routes. Nil means a fresh private
	// collector, so the routes always work.
	Collector *obs.Collector
	// RequestTimeout bounds each request's total handling time, audit
	// included; the audit aborts and the client receives 503 when it
	// expires. 0 means 2 minutes; negative disables the timeout.
	RequestTimeout time.Duration
	// Logger, when non-nil, receives one line per request (request ID,
	// method, path, status, sizes, latency). Nil logs nothing; the event
	// log in Collector records the same information either way.
	Logger *log.Logger
	// Jobs serves the asynchronous /jobs routes. Nil means New creates a
	// default in-process manager sharing Collector (and, when Tenants is
	// set, wired to release slots and charge budgets on job completion);
	// callers who need custom job limits or a clean Shutdown pass their own
	// manager and wire its OnTerminal hook themselves.
	Jobs *jobs.Manager
	// Tenants, when non-nil, turns on the multi-tenant control plane: API
	// keys (when any are registered), per-tenant token-bucket rate limits,
	// concurrent-job caps, and compute budgets on the /audit and /jobs
	// routes. /healthz, /metrics, and /debug stay open.
	Tenants *tenant.Registry
	// AuditLog, when non-nil, receives one append-only JSONL entry per
	// request (tenant, route, status, job ID, sizes, latency).
	AuditLog *tenant.Log
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.Audit.Similarity == nil {
		c.Audit = core.DefaultConfig()
	}
	if c.Collector == nil {
		c.Collector = obs.NewCollector(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Minute
	} else if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.Jobs == nil {
		jcfg := jobs.Config{Collector: c.Collector}
		if reg := c.Tenants; reg != nil {
			jcfg.OnTerminal = func(s jobs.Snapshot) {
				reg.FinishJob(s.Tenant, float64(s.Progress.PairsScanned))
			}
		}
		c.Jobs = jobs.NewManager(jcfg)
	}
	return c
}

// New returns the service handler with these routes:
//
//	GET  /healthz            liveness probe
//	POST /audit              LAR CSV body -> JSON audit report
//	POST /audit/geojson      LAR CSV body -> GeoJSON of flagged regions
//	POST /jobs               LAR CSV body -> 202 + job snapshot (async audit)
//	GET  /jobs               list the caller's retained jobs
//	GET  /jobs/{id}          job status snapshot with live progress
//	GET  /jobs/{id}/result   finished report (JSON or GeoJSON)
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET  /metrics            JSON snapshot of every counter, gauge, histogram
//	GET  /debug/vars         runtime memstats + goroutines + metrics snapshot
//	GET  /debug/events       recent structured events as JSON lines
//
// The audit routes and POST /jobs accept query parameters cols, rows (grid
// resolution, default 100x50), epsilon, delta, eta, alpha, min_region,
// ethical=1, and seed; POST /jobs additionally takes format=geojson.
func New(cfg Config) http.Handler {
	cfg = cfg.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /audit", func(w http.ResponseWriter, r *http.Request) {
		handleAudit(w, r, cfg, false)
	})
	mux.HandleFunc("POST /audit/geojson", func(w http.ResponseWriter, r *http.Request) {
		handleAudit(w, r, cfg, true)
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		handleJobSubmit(w, r, cfg)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		handleJobList(w, r, cfg)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleJobStatus(w, r, cfg)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		handleJobResult(w, r, cfg)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleJobCancel(w, r, cfg)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		handleMetrics(w, r, cfg)
	})
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		handleDebugVars(w, r, cfg)
	})
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		handleDebugEvents(w, r, cfg)
	})
	return withObservability(withTenancy(mux, cfg), cfg)
}

// httpError writes a JSON error payload.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
	})
}

// readLAR reads a LAR CSV body into decisioned observations, writing the
// error response itself when the body is oversized, malformed, or empty.
// Shared by the synchronous audit routes and the async job submission. The
// rows it drops as non-decisioned are counted in
// obs.MIngestDroppedNonDecisioned.
func readLAR(w http.ResponseWriter, r *http.Request, cfg Config, reqID string) ([]partition.Observation, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, cfg.MaxBodyBytes)
	tbl, err := table.ReadCSV(r.Body, hmda.Schema())
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			cfg.Collector.Event("http.body_rejected", reqID, "request body over limit",
				map[string]any{"limit_bytes": tooBig.Limit})
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return nil, false
		}
		httpError(w, http.StatusBadRequest, "parsing LAR CSV: %v", err)
		return nil, false
	}
	recs := hmda.FromTable(tbl)
	obsv := hmda.ToObservations(recs)
	cfg.Collector.Count(obs.MIngestDroppedNonDecisioned, int64(len(recs)-len(obsv)))
	if len(obsv) == 0 {
		httpError(w, http.StatusBadRequest, "no decisioned (approved/denied) records in input")
		return nil, false
	}
	return obsv, true
}

// recordWriteFailure notes a response-body write that failed after headers
// were already out — the client sees a truncated body, so the counter and
// event are the only trace the failure leaves.
func recordWriteFailure(cfg Config, reqID, what string, err error) {
	cfg.Collector.Inc(obs.MHTTPWriteFailed)
	cfg.Collector.Event("http.write_failed", reqID, "writing "+what+": "+err.Error(), nil)
}

func handleAudit(w http.ResponseWriter, r *http.Request, cfg Config, asGeoJSON bool) {
	reqID := RequestID(r.Context())
	// A bad parameter is refused before the body is read: it costs a
	// query parse, not a CSV parse.
	p, err := parseAuditParams(r.URL.Query(), cfg.Audit)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	obsv, ok := readLAR(w, r, cfg, reqID)
	if !ok {
		return
	}
	acfg := p.Audit
	// Audit counters land in the same collector as the request metrics.
	acfg.Collector = cfg.Collector

	grid := geo.NewGrid(geo.ContinentalUS, p.Cols, p.Rows)
	part := partition.ByGrid(grid, obsv, partition.Options{Seed: acfg.Seed})
	// The request context aborts the audit when the client disconnects or
	// the per-request timeout expires.
	res, err := core.AuditContext(r.Context(), part, acfg)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			// The client went away mid-audit: nobody is listening for a
			// response, and the config was fine. Record the drop and stop —
			// an HTTP 400 here would pollute error-rate dashboards with
			// client disconnects.
			cfg.Collector.Inc(obs.MHTTPCanceled)
			cfg.Collector.Event("http.client_gone", reqID, "audit dropped: client disconnected", nil)
		case errors.Is(err, context.DeadlineExceeded):
			cfg.Collector.Inc(obs.MHTTPTimeouts)
			httpError(w, http.StatusServiceUnavailable,
				"audit exceeded the request timeout")
		default:
			httpError(w, http.StatusBadRequest, "audit: %v", err)
		}
		return
	}

	if asGeoJSON {
		data, err := report.GeoJSON(part, grid, res)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "rendering GeoJSON: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/geo+json")
		if _, err := w.Write(data); err != nil {
			recordWriteFailure(cfg, reqID, "GeoJSON report", err)
		}
		return
	}
	doc := report.Build(part, grid, res)
	w.Header().Set("Content-Type", "application/json")
	if err := doc.WriteJSON(w); err != nil {
		recordWriteFailure(cfg, reqID, "JSON report", err)
		return
	}
}
