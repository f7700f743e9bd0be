package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/hmda"
	"lcsf/internal/jobs"
	"lcsf/internal/obs"
	"lcsf/internal/server"
	"lcsf/internal/stats"
	"lcsf/internal/tenant"
)

// jobs_tenants: an open loop of seeded Poisson arrivals at a fixed rate,
// spread round-robin over four tenants with API keys. Each tenant
// re-submits its own fixed LAR — one default lender at 5% volume — to
// POST /jobs and polls GET /jobs/{id}/result until a 200 is fully read,
// under the default job manager (four shards per job). Only this workload
// runs the queue, the shard fan-out and merge, and tenancy; its inputs
// repeat, so reuse across requests shows here and not on sync_lar.

const (
	numTenants = 4
	// shardsPerJob is the job manager's default shard count, which the
	// traced run's in-process shard replay mirrors.
	shardsPerJob = 4
	// pollInterval is how often the client polls a pending job: small next
	// to job latency, which is hundreds of milliseconds.
	pollInterval = 10 * time.Millisecond
	// genLagBound is how late the generator may send at its 99th
	// percentile before the run is marked invalid: beyond it, the offered
	// load is no longer the schedule's.
	genLagBound = 500 * time.Millisecond
	// drainLimit bounds how long jobs still outstanding after the last
	// arrival may take; any left then count as failed.
	drainLimit = 60 * time.Second
)

// tenantLimits sit far above the offered load, polls included, so the
// tenancy checks run on every request and never refuse one.
var tenantLimits = tenant.Limits{
	RatePerSec:          10000,
	Burst:               10000,
	MaxActiveJobs:       64,
	ComputeBudget:       1e15,
	ComputeRefillPerSec: 1e12,
}

func tenantKey(k int) string { return fmt.Sprintf("bench-key-%d", k) }

type jobsTenants struct {
	svc    *service
	mgr    *jobs.Manager
	bodies [numTenants][]byte
	rows   [numTenants]int
	refs   [numTenants][]byte // each tenant's report, computed in process
	// eligible and scanned are each tenant's audit shape, from the
	// reference run's collector.
	eligible, scanned [numTenants]int64
}

func setupJobsTenants(ctx context.Context, cfg runConfig) (*jobsTenants, error) {
	model := larModel()
	st := &jobsTenants{}
	for k, l := range hmda.DefaultLenders()[:numTenants] {
		body, rows, err := larBody(nil, model, scaledLender(l, cfg.sizes.tenantVolume, splitmix(cfg.seed^saltTenant+uint64(k))))
		if err != nil {
			return nil, fmt.Errorf("tenant %d body: %w", k, err)
		}
		ref, _, snap, err := replay(ctx, nil, 0, -1, body)
		if err != nil {
			return nil, fmt.Errorf("tenant %d reference: %w", k, err)
		}
		st.bodies[k], st.rows[k], st.refs[k] = body, rows, ref
		st.eligible[k] = snap.Counter(obs.MAuditEligible)
		st.scanned[k] = snap.Counter(obs.MAuditPairsScanned)
	}
	col := obs.NewCollector(0)
	reg := tenant.NewRegistry(tenantLimits, nil)
	for k := 0; k < numTenants; k++ {
		reg.AddKey(tenantKey(k), fmt.Sprintf("tenant-%d", k))
	}
	// The manager is the server's default one, built here so it can be
	// shut down: the same Collector and the same budget-charging hook.
	st.mgr = jobs.NewManager(jobs.Config{
		Collector:  col,
		OnTerminal: func(s jobs.Snapshot) { reg.FinishJob(s.Tenant, float64(s.Progress.PairsScanned)) },
	})
	svc, err := startService(server.New(server.Config{Collector: col, Tenants: reg, Jobs: st.mgr}))
	if err != nil {
		_ = st.mgr.Shutdown(ctx) // the listen error is the one worth returning
		return nil, err
	}
	st.svc = svc
	// Warm-up: one job of tenant 0 through submit, poll and fetch.
	var a arrival
	if st.submit(&a); a.err == "" {
		for a.received.IsZero() && a.err == "" {
			time.Sleep(pollInterval)
			st.poll(&a)
		}
	}
	if a.err == "" && !bytes.Equal(a.resp, st.refs[0]) {
		a.err = "warm-up result differs from the reference"
	}
	if a.err != "" {
		_ = st.close() // the warm-up failure is the one worth returning
		return nil, fmt.Errorf("warm-up job: %s", a.err)
	}
	return st, nil
}

func (st *jobsTenants) close() error {
	err := st.svc.stop()
	ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
	defer cancel()
	if serr := st.mgr.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// arrival is one scheduled job and what became of it.
type arrival struct {
	tenant int
	traced bool
	due    time.Time
	sent   time.Time // POST /jobs sent
	acked  time.Time // its 202 read
	id     string
	// received is when the result's 200 was fully read; zero until then.
	received time.Time
	resp     []byte
	snap     jobs.Snapshot // traced arrivals: the job's server-side times
	err      string        // why the op failed; "" when it did not
}

// submit sends a's job.
func (st *jobsTenants) submit(a *arrival) {
	a.sent = time.Now()
	status, data, err := st.svc.call(http.MethodPost, "/jobs", tenantKey(a.tenant), st.bodies[a.tenant])
	a.acked = time.Now()
	var snap jobs.Snapshot
	switch {
	case err != nil:
		a.err = fmt.Sprintf("POST /jobs: %v", err)
	case status != http.StatusAccepted:
		a.err = fmt.Sprintf("POST /jobs: status %d", status)
	case json.Unmarshal(data, &snap) != nil || snap.ID == "":
		a.err = "POST /jobs: no job ID in the response"
	default:
		a.id = snap.ID
	}
}

// poll asks once for a's result; it reports whether the job is settled
// (done or failed). Traced arrivals also read the job's snapshot once done.
func (st *jobsTenants) poll(a *arrival) bool {
	status, data, err := st.svc.call(http.MethodGet, "/jobs/"+a.id+"/result", tenantKey(a.tenant), nil)
	now := time.Now()
	switch {
	case err != nil:
		a.err = fmt.Sprintf("GET result: %v", err)
	case status == http.StatusConflict:
		return false
	case status != http.StatusOK:
		a.err = fmt.Sprintf("GET result: status %d", status)
	default:
		a.received, a.resp = now, data
		if a.traced {
			status, data, err := st.svc.call(http.MethodGet, "/jobs/"+a.id, tenantKey(a.tenant), nil)
			if err != nil || status != http.StatusOK || json.Unmarshal(data, &a.snap) != nil {
				a.err = fmt.Sprintf("GET job snapshot: status %d, %v", status, err)
			}
		}
	}
	return true
}

// schedule draws the run's arrivals: a Poisson process of the given rate
// over the window, conditioned on its expected count, so every seed offers
// the same number of jobs at seed-dependent times.
func schedule(seed uint64, rate float64, window time.Duration, start time.Time, trace bool) []arrival {
	n := int(rate*window.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	rng := stats.NewRNG(seed ^ saltArrive)
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(offsets)
	arr := make([]arrival, n)
	for i, off := range offsets {
		arr[i] = arrival{
			tenant: i % numTenants,
			traced: trace && i%2 == 1,
			due:    start.Add(time.Duration(off * float64(time.Second))),
		}
	}
	return arr
}

var jobsCritical = []string{"op", "gen.lag", "jobs.submit", "jobs.wait", "jobs.queue_wait", "jobs.run", "jobs.fetch_lag"}

func runJobsTenants(ctx context.Context, cfg runConfig) (*outcome, error) {
	return runWorkload(cfg.sizes.setupRepeats,
		func() (*jobsTenants, error) { return setupJobsTenants(ctx, cfg) },
		(*jobsTenants).close,
		func(st *jobsTenants) (*outcome, error) { return st.measure(ctx, cfg) })
}

func (st *jobsTenants) measure(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{tailAt: 50, layers: series{}, critical: jobsCritical}
	if cfg.trace {
		out.tr = newTracer()
	}
	before, err := st.svc.counters()
	if err != nil {
		return nil, err
	}
	mark, cpu := markAlloc(), cpuSeconds()
	start := time.Now().Add(50 * time.Millisecond)
	arr := schedule(cfg.seed, cfg.sizes.jobRate, cfg.seconds, start, cfg.trace)

	// Two client goroutines, the generator and the poller: the generator
	// sends each job at its due time, the poller settles outstanding jobs.
	// The channel carries every accepted arrival, so it is sized to them.
	accepted := make(chan int, len(arr))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(accepted)
		for i := range arr {
			a := &arr[i]
			time.Sleep(time.Until(a.due))
			if st.submit(a); a.err == "" {
				accepted <- i
			}
		}
	}()
	go func() {
		defer wg.Done()
		var pending []int
		open := true
		var deadline time.Time
		for open || len(pending) > 0 {
		take:
			for open {
				select {
				case i, ok := <-accepted:
					if !ok {
						open, deadline = false, time.Now().Add(drainLimit)
						break take
					}
					pending = append(pending, i)
				default:
					break take
				}
			}
			keep := pending[:0]
			for _, i := range pending {
				if !st.poll(&arr[i]) {
					keep = append(keep, i)
				}
			}
			pending = keep
			if !open && time.Now().After(deadline) {
				for _, i := range pending {
					arr[i].err = fmt.Sprintf("not done %v after the last arrival", drainLimit)
				}
				return
			}
			time.Sleep(pollInterval)
		}
	}()
	wg.Wait()
	// Jobs overlap, so CPU is taken over the whole loop, generator and
	// poller included.
	out.cpu = cpuSeconds() - cpu
	out.rssMB = peakRSSMB()
	allocMB, gcs := mark.perOp(len(arr))

	end := start.Add(cfg.seconds)
	var lags []float64
	var last time.Time
	backlog := 0
	for i := range arr {
		a := &arr[i]
		out.attempted++
		lags = append(lags, a.sent.Sub(a.due).Seconds())
		if a.err == "" && !bytes.Equal(a.resp, st.refs[a.tenant]) {
			a.err = "result differs from the tenant's reference"
		}
		if a.err != "" {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("arrival %d (tenant %d): %s", i, a.tenant, a.err))
			continue
		}
		if a.received.After(end) && a.due.Before(end) {
			backlog++
		}
		if a.received.After(last) {
			last = a.received
		}
		lat := a.received.Sub(a.due).Seconds()
		if a.traced {
			out.tracedLat = append(out.tracedLat, lat)
			traceJob(out.tr, i, a)
		} else {
			out.lat = append(out.lat, lat)
		}
	}
	if !last.IsZero() {
		out.throughput = ratio(float64(len(out.lat)+len(out.tracedLat)), last.Sub(start).Seconds())
	}
	lagP99 := percentile(lags, 99)
	if lagP99 > genLagBound.Seconds() {
		out.invalid = fmt.Sprintf("generator lag p99 %.3f s exceeds the %v bound", lagP99, genLagBound)
	}
	out.notes = append(out.notes, fmt.Sprintf("open loop: %d arrivals at %g jobs/s over %v, generator lag p99 %.4f s, backlog at end %d",
		len(arr), cfg.sizes.jobRate, cfg.seconds, lagP99, backlog))
	out.layers.add("gen.lag_p99_s", lagP99)
	out.layers.add("jobs.backlog_at_end", float64(backlog))
	out.layers.add("go.alloc_mb_per_op", allocMB)
	out.layers.add("go.gc_cycles_per_op", gcs)

	after, err := st.svc.counters()
	if err != nil {
		return nil, err
	}
	recordServer(out.layers, before, after)
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	out.layers.add("jobs.rejected", d(obs.MJobsRejected))
	out.layers.add("jobs.retried", d(obs.MJobsRetried))
	out.layers.add("tenant.rate_limited", d(obs.MHTTPRateLimited))
	out.layers.add("tenant.job_limit_rejections", d(obs.MTenantJobLimitRejections))
	out.layers.add("tenant.budget_rejections", d(obs.MTenantBudgetRejections))
	out.layers.add("tenant.unauthorized", d(obs.MHTTPUnauthorized))
	for k := 0; k < numTenants; k++ {
		out.layers.add("shape.rows", float64(st.rows[k]))
		out.layers.add("shape.bytes", float64(len(st.bodies[k])))
		out.layers.add("shape.eligible_regions", float64(st.eligible[k]))
		out.layers.add("shape.scanned_pairs", float64(st.scanned[k]))
		out.layers.add("shape.rescored_pairs", 0)
	}
	if cfg.trace {
		for k := 0; k < numTenants; k++ {
			if err := st.replayShards(ctx, out, len(arr)+k, k); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// traceJob lays a settled arrival out as spans: the generator's lag, the
// submit round trip, and the wait for the result split by the job's own
// server-side times into queue wait, run, and the fetch lag after it
// finished.
func traceJob(tr *tracer, op int, a *arrival) {
	root := tr.add(op, -1, "op", a.due, a.received, false)
	tr.add(op, root, "gen.lag", a.due, a.sent, false)
	tr.add(op, root, "jobs.submit", a.sent, a.acked, false)
	wait := tr.add(op, root, "jobs.wait", a.acked, a.received, false)
	s := a.snap
	tr.add(op, wait, "jobs.queue_wait", s.SubmittedAt, s.StartedAt, true)
	tr.add(op, wait, "jobs.run", s.StartedAt, s.FinishedAt, true)
	tr.add(op, wait, "jobs.fetch_lag", s.FinishedAt, a.received, true)
}

// replayShards runs tenant k's job the way the manager does, in process
// and under spans: ingest, four single-worker shards, merge, render. It
// then times one single-worker audit of the same partitioning, the base of
// the shards' CPU ratio, and checks the merged report against the
// reference.
func (st *jobsTenants) replayShards(ctx context.Context, out *outcome, op, k int) error {
	tr := out.tr
	acfg := core.DefaultConfig()
	acfg.Workers = 1
	root := tr.begin(op, -1, "replay")
	in, err := ingest(tr, op, root, st.bodies[k], acfg.Seed)
	if err != nil {
		return err
	}
	var shards []*core.ShardResult
	var snaps []obs.Snapshot
	var shardTime time.Duration
	var shardCPU float64
	for s := 0; s < shardsPerJob; s++ {
		col := obs.NewCollector(16)
		scfg := acfg
		scfg.Collector = col
		start, cpu := time.Now(), cpuSeconds()
		sp := tr.begin(op, root, "core.audit")
		sr, err := core.AuditShard(ctx, in.part, scfg, s, shardsPerJob)
		tr.end(sp)
		shardTime += time.Since(start)
		shardCPU += cpuSeconds() - cpu
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		snap := col.Snapshot()
		tr.addPhases(op, sp, snap)
		shards, snaps = append(shards, sr), append(snaps, snap)
	}
	sp := tr.begin(op, root, "core.merge_shards")
	res, err := core.MergeShards(acfg, shards)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("merging shards: %w", err)
	}
	doc, err := render(tr, op, root, in.part, res)
	tr.end(root)
	if err != nil {
		return err
	}
	if !bytes.Equal(doc, st.refs[k]) {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("tenant %d: merged shard report differs from the reference", k))
	}
	// Shards and the audit all run with one worker after the loop has
	// settled every job, so the process's CPU deltas are theirs.
	cpu := cpuSeconds()
	if _, err := core.AuditContext(ctx, in.part, acfg); err != nil {
		return fmt.Errorf("single-worker audit: %w", err)
	}
	wholeCPU := cpuSeconds() - cpu

	out.layers.add("jobs.shard_s", shardTime.Seconds()/shardsPerJob)
	out.layers.add("jobs.shard_cpu_over_audit", ratio(shardCPU, wholeCPU))
	recordIngest(out.layers, in, len(st.bodies[k]))
	recordCore(out.layers, sumCounters(snaps), res.EligibleRegions)
	out.layers.add("report.bytes", float64(len(doc)))
	return nil
}

// sumCounters adds several audits' counters and histogram sums into one
// snapshot, as if one collector had seen them all.
func sumCounters(snaps []obs.Snapshot) obs.Snapshot {
	total := obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for _, s := range snaps {
		for name, v := range s.Counters {
			total.Counters[name] += v
		}
		for name, h := range s.Histograms {
			t := total.Histograms[name]
			t.Count += h.Count
			t.Sum += h.Sum
			total.Histograms[name] = t
		}
	}
	return total
}
