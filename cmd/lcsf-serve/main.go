// Command lcsf-serve runs the LC-SF audit as an HTTP service.
//
//	lcsf-serve -addr :8080
//	curl -X POST --data-binary @data/lar_bank_of_america.csv \
//	     'http://localhost:8080/audit?cols=100&rows=50' | jq .unfair_pairs
//	curl -X POST --data-binary @data/lar_loan_depot.csv \
//	     'http://localhost:8080/audit/geojson?cols=40&rows=20' > flagged.geojson
//	curl -X POST --data-binary @data/lar_loan_depot.csv \
//	     'http://localhost:8080/jobs?seed=7' | jq .id     # async: returns job ID
//	curl 'http://localhost:8080/jobs/job-00000001'        # poll status
//	curl 'http://localhost:8080/jobs/job-00000001/result' # fetch report
//	curl 'http://localhost:8080/metrics' | jq .counters
//
// Multi-tenant mode: -api-keys 'key1=acme,key2=globex' requires every audit
// and job request to present a key (X-API-Key or Authorization: Bearer);
// -rate-limit, -tenant-max-jobs, and -tenant-budget bound each tenant's use.
// -audit-log appends one JSON line per request to a persistent file.
//
// Every request is logged with its request ID, and on SIGINT/SIGTERM the
// server drains in-flight requests and queued jobs, then prints a metrics
// summary before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lcsf/internal/jobs"
	"lcsf/internal/obs"
	"lcsf/internal/server"
	"lcsf/internal/tenant"
)

func main() {
	logger := log.New(os.Stderr, "lcsf-serve: ", 0)

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxBody    = flag.Int64("max-body-mb", 256, "maximum request body size in MiB")
		reqTimeout = flag.Duration("request-timeout", 2*time.Minute, "per-request handling timeout (0 disables)")
		quietReqs  = flag.Bool("quiet", false, "suppress the per-request log line (metrics still collected)")

		jobsWorkers   = flag.Int("jobs-workers", 0, "global bound on audit-engine workers, split evenly across running jobs (0 = GOMAXPROCS)")
		jobsQueue     = flag.Int("jobs-queue", 64, "pending-job queue depth; beyond it submissions get 429")
		jobsActive    = flag.Int("jobs-active", 0, "jobs running concurrently (0 = workers/2)")
		jobTimeout    = flag.Duration("job-timeout", 10*time.Minute, "per-job execution timeout (0 disables)")
		jobsRetention = flag.Int("jobs-retention", 1024, "finished jobs (and their reports) retained for fetching")

		apiKeys      = flag.String("api-keys", "", "comma-separated key=tenant pairs; empty leaves the service open")
		rateLimit    = flag.Float64("rate-limit", 0, "per-tenant requests per second (0 disables)")
		rateBurst    = flag.Float64("rate-burst", 0, "per-tenant burst size (0 = max(rate,1))")
		tenantJobs   = flag.Int("tenant-max-jobs", 0, "per-tenant concurrent job cap (0 disables)")
		tenantBudget = flag.Float64("tenant-budget", 0, "per-tenant compute budget in audit pairs (0 disables)")
		budgetRefill = flag.Float64("tenant-budget-refill", 0, "budget restored per second, up to the cap")
		auditLogPath = flag.String("audit-log", "", "append-only JSONL request log path (empty disables)")
	)
	flag.Parse()

	col := obs.NewCollector(4096)

	var reg *tenant.Registry
	if *apiKeys != "" || *rateLimit > 0 || *tenantJobs > 0 || *tenantBudget > 0 {
		reg = tenant.NewRegistry(tenant.Limits{
			RatePerSec:          *rateLimit,
			Burst:               *rateBurst,
			MaxActiveJobs:       *tenantJobs,
			ComputeBudget:       *tenantBudget,
			ComputeRefillPerSec: *budgetRefill,
		}, nil)
		for _, pair := range strings.Split(*apiKeys, ",") {
			pair = strings.TrimSpace(pair)
			if pair == "" {
				continue
			}
			key, name, ok := strings.Cut(pair, "=")
			if !ok || key == "" || name == "" {
				logger.Fatalf("-api-keys: %q is not key=tenant", pair)
			}
			reg.AddKey(key, name)
		}
	}

	var alog *tenant.Log
	if *auditLogPath != "" {
		var err error
		alog, err = tenant.OpenLog(*auditLogPath)
		if err != nil {
			logger.Fatal(err)
		}
		defer func() {
			if err := alog.Close(); err != nil {
				logger.Printf("closing audit log: %v", err)
			}
		}()
	}

	jcfg := jobs.Config{
		Workers:        *jobsWorkers,
		MaxActiveJobs:  *jobsActive,
		QueueDepth:     *jobsQueue,
		JobTimeout:     *jobTimeout,
		RetentionLimit: *jobsRetention,
		Collector:      col,
	}
	if *jobTimeout == 0 {
		jcfg.JobTimeout = -1 // Config treats 0 as "default"; negative disables.
	}
	if reg != nil {
		jcfg.OnTerminal = func(s jobs.Snapshot) {
			reg.FinishJob(s.Tenant, float64(s.Progress.PairsScanned))
		}
	}
	mgr := jobs.NewManager(jcfg)

	scfg := server.Config{
		MaxBodyBytes:   *maxBody << 20,
		Collector:      col,
		RequestTimeout: *reqTimeout,
		Jobs:           mgr,
		Tenants:        reg,
		AuditLog:       alog,
	}
	if *reqTimeout == 0 {
		scfg.RequestTimeout = -1 // Config treats 0 as "default"; negative disables.
	}
	if !*quietReqs {
		scfg.Logger = logger
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(scfg),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Fatal(err)
	case sig := <-sigc:
		logger.Printf("%s: draining and shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Printf("shutdown: %v", err)
		}
		// The HTTP listener is closed; give queued and running jobs the rest
		// of the grace period, then force-cancel.
		if err := mgr.Shutdown(ctx); err != nil {
			logger.Printf("jobs shutdown: %v", err)
		}
	}

	logger.Printf("metrics summary (uptime %s):", col.Uptime().Round(time.Second))
	if err := col.Snapshot().WriteSummary(os.Stderr); err != nil {
		logger.Printf("writing summary: %v", err)
	}
}
