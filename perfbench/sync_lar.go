package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"lcsf/internal/census"
	"lcsf/internal/hmda"
	"lcsf/internal/obs"
	"lcsf/internal/report"
	"lcsf/internal/server"
	"lcsf/internal/stats"
)

// sync_lar: one client in a closed loop POSTs a distinct, full-volume,
// Loan-Depot-shaped LAR to /audit on a default server and reads the whole
// report. It is the paper's use case, and the one workload where CSV
// parse, per-request null prewarm, sweep and report render each take a
// large share. Its inputs share nothing, so a cross-request cache must show
// no change here.

// syncLAR is sync_lar's state after setup.
type syncLAR struct {
	model  *census.Model
	lender hmda.Lender
	svc    *service
	buf    []byte
	// reference computes the report a body must get back; it is replay,
	// and the package tests substitute a corrupted one.
	reference func(ctx context.Context, tr *tracer, op, parent int, body []byte) ([]byte, *ingested, obs.Snapshot, error)
}

func setupSyncLAR(cfg runConfig) (*syncLAR, error) {
	ld, err := hmda.LenderByName("Loan Depot")
	if err != nil {
		return nil, err
	}
	model := larModel()
	body, _, err := larBody(nil, model, scaledLender(ld, cfg.sizes.warmVolume, splitmix(cfg.seed^saltWarm)))
	if err != nil {
		return nil, err
	}
	svc, err := startService(server.New(server.Config{}))
	if err != nil {
		return nil, err
	}
	status, _, err := svc.call(http.MethodPost, "/audit", "", body)
	if err != nil || status != http.StatusOK {
		_ = svc.stop() // the warm-up failure is the one worth returning
		return nil, fmt.Errorf("warm-up POST /audit: status %d, %v", status, err)
	}
	return &syncLAR{model: model, lender: ld, svc: svc, reference: replay}, nil
}

func (st *syncLAR) close() error { return st.svc.stop() }

func runSyncLAR(ctx context.Context, cfg runConfig) (*outcome, error) {
	return runWorkload(cfg.sizes.setupRepeats,
		func() (*syncLAR, error) { return setupSyncLAR(cfg) },
		(*syncLAR).close,
		func(st *syncLAR) (*outcome, error) { return st.measure(ctx, cfg) })
}

// body generates an op's LAR, drawn from its own lender seed, into the
// state's body buffer: the previous body is dead once its op is checked.
func (st *syncLAR) body(cfg runConfig, lenderSeed uint64) ([]byte, int, error) {
	body, rows, err := larBody(st.buf, st.model, scaledLender(st.lender, cfg.sizes.larVolume, lenderSeed))
	if err == nil {
		st.buf = body
	}
	return body, rows, err
}

// syncCritical are the layers one sync_lar op's latency divides into: the
// in-process replay of the handler's calls plus the server's own share.
var syncCritical = []string{
	"table.read_csv", "hmda.decode", "partition.by_grid",
	"core.audit", "core.runner", "core.index", "core.prepare", "core.prewarm", "core.sweep", "core.fdr",
	"report.build", "report.encode", "server.overhead",
}

func (st *syncLAR) measure(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{tailAt: 50, layers: series{}, critical: syncCritical}
	if cfg.trace {
		out.tr = newTracer()
	}
	before, err := st.svc.counters()
	if err != nil {
		return nil, err
	}
	// Untraced ops keep their response so a seeded sample can be re-audited
	// in process after the loop, off the clock.
	type kept struct {
		lenderSeed uint64
		resp       []byte
	}
	var sample []kept
	start := time.Now()
	for op := 0; time.Since(start) < cfg.seconds; op++ {
		lenderSeed := splitmix(cfg.seed ^ saltBody + uint64(op))
		body, rows, err := st.body(cfg, lenderSeed)
		if err != nil {
			return nil, err
		}
		// Collect the body's generation garbage now, not inside the op.
		runtime.GC()
		traced := out.tr != nil && op%2 == 1
		out.attempted++
		mark, cpu := markAlloc(), cpuSeconds()
		t0 := time.Now()
		status, resp, err := st.svc.call(http.MethodPost, "/audit", "", body)
		t1 := time.Now()
		cpu = cpuSeconds() - cpu
		allocMB, gcs := mark.perOp(1)
		if err != nil || status != http.StatusOK {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("op %d: POST /audit status %d, %v", op, status, err))
			continue
		}
		doc, err := report.ReadJSON(bytes.NewReader(resp))
		if err != nil || doc.UnfairPairs != len(doc.Pairs) {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("op %d: report does not parse or miscounts its pairs: %v", op, err))
			continue
		}
		lat := t1.Sub(t0).Seconds()
		out.layers.add("go.alloc_mb_per_op", allocMB)
		out.layers.add("go.gc_cycles_per_op", gcs)
		out.layers.add("shape.rows", float64(rows))
		out.layers.add("shape.bytes", float64(len(body)))
		out.layers.add("shape.eligible_regions", float64(doc.EligibleRegions))
		if !traced {
			out.lat = append(out.lat, lat)
			out.cpu += cpu
			sample = append(sample, kept{lenderSeed: lenderSeed, resp: resp})
			continue
		}
		out.tracedLat = append(out.tracedLat, lat)
		if err := st.traceOp(ctx, out, op, t0, t1, body, resp); err != nil {
			return nil, err
		}
	}
	out.throughput = ratio(float64(len(out.lat)), sum(out.lat))
	out.rssMB = peakRSSMB()
	after, err := st.svc.counters()
	if err != nil {
		return nil, err
	}
	recordServer(out.layers, before, after)
	runs := after[obs.MAuditRuns] - before[obs.MAuditRuns]
	out.layers.add("shape.scanned_pairs", ratio(float64(after[obs.MAuditPairsScanned]-before[obs.MAuditPairsScanned]), float64(runs)))
	out.layers.add("shape.rescored_pairs", 0)

	// Byte-for-byte check of a seeded sample of untraced ops against the
	// same calls made in process (traced ops were each checked already).
	rng := stats.NewRNG(cfg.seed ^ saltSample)
	for k := 0; k < cfg.sizes.larChecks && len(sample) > 0; k++ {
		i := rng.Intn(len(sample))
		s := sample[i]
		sample = append(sample[:i], sample[i+1:]...)
		body, _, err := st.body(cfg, s.lenderSeed)
		if err != nil {
			return nil, err
		}
		want, _, _, err := st.reference(ctx, nil, 0, -1, body)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, s.resp) {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("sampled op (lender seed %d): response differs from the in-process report", s.lenderSeed))
		}
	}
	return out, nil
}

// traceOp records a traced sync_lar op: the request's span, then the
// handler's calls replayed in process on the same body under spans of
// their own, and the server's share as the request time the replayed
// layers do not cover. The replay's report must equal the response.
func (st *syncLAR) traceOp(ctx context.Context, out *outcome, op int, t0, t1 time.Time, body, resp []byte) error {
	tr := out.tr
	tr.add(op, -1, "op", t0, t1, false)
	// Start the replay without the request's garbage, as the request
	// started without the body's.
	runtime.GC()
	root := tr.begin(op, -1, "replay")
	want, in, snap, err := st.reference(ctx, tr, op, root, body)
	tr.end(root)
	if err != nil {
		return err
	}
	var layers time.Duration
	for _, s := range tr.spans[root+1:] {
		if s.Parent == root {
			layers += time.Duration(s.End - s.Start)
		}
	}
	tr.add(op, -1, "server.overhead", t0, t1.Add(-layers), true)
	recordIngest(out.layers, in, len(body))
	recordCore(out.layers, snap, int(snap.Counter(obs.MAuditEligible)))
	out.layers.add("report.bytes", float64(len(want)))
	if !bytes.Equal(want, resp) {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("op %d: response differs from the in-process report", op))
	}
	return nil
}
