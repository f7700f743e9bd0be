package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/geo"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
)

// dense_sweep: a closed loop through the library, each op partitioning the
// dense R=3000 universe and auditing it on every CPU. Its 4.5M region pairs
// prune to some 470k scanned pairs of 300-sample regions, so window join,
// prepare and the pair kernel dominate and prewarm is small — sync_lar's
// shape the other way round. It is the workload that measures the index
// layer. It runs on every CPU, but its bounded metric is CPU per op, which
// does not rise when the sweep stops fanning out: parallel scaling shows
// only in the unbounded wall.* figures.

// funnelCounters are the audit counters every dense_sweep op must repeat
// exactly.
var funnelCounters = []string{
	obs.MAuditEligible, obs.MAuditPairsScanned, obs.MAuditDissRejections,
	obs.MAuditEtaFastPath, obs.MAuditSimRejections, obs.MAuditCandidates,
	obs.MAuditFlagged, obs.MAuditIndexWindowCandidates, obs.MAuditIndexBoundsRejections,
}

// observationBytes is the in-memory size of one observation.
const observationBytes = int(unsafe.Sizeof(partition.Observation{}))

type denseSweep struct {
	obs    []partition.Observation
	grid   geo.Grid
	seed   uint64
	cfg    core.Config
	ref    *core.Result
	funnel map[string]int64
}

func setupDenseSweep(ctx context.Context, cfg runConfig) (*denseSweep, error) {
	obsv, grid := experiments.DenseAuditObservations(cfg.sizes.denseRegions, cfg.seed)
	acfg := core.DefaultConfig()
	acfg.Workers = runtime.NumCPU()
	st := &denseSweep{obs: obsv, grid: grid, seed: cfg.seed, cfg: acfg}
	// The reference run doubles as the warm-up.
	_, res, snap, err := st.op(ctx, nil, 0)
	if err != nil {
		return nil, err
	}
	st.ref = res
	st.funnel = make(map[string]int64, len(funnelCounters))
	for _, name := range funnelCounters {
		st.funnel[name] = snap.Counter(name)
	}
	return st, nil
}

// op partitions the universe and audits it.
func (st *denseSweep) op(ctx context.Context, tr *tracer, op int) (*partition.Partitioning, *core.Result, obs.Snapshot, error) {
	root := tr.begin(op, -1, "op")
	defer tr.end(root)
	s := tr.begin(op, root, "partition.by_grid")
	part := partition.ByGrid(st.grid, st.obs, partition.Options{Seed: st.seed})
	tr.end(s)
	res, snap, err := audit(ctx, tr, op, root, part, st.cfg)
	return part, res, snap, err
}

// check compares an op's result and funnel with the reference run's.
func (st *denseSweep) check(res *core.Result, snap obs.Snapshot) error {
	if err := sameResult(res, st.ref); err != nil {
		return err
	}
	for _, name := range funnelCounters {
		if got, want := snap.Counter(name), st.funnel[name]; got != want {
			return fmt.Errorf("funnel counter %s is %d, reference %d", name, got, want)
		}
	}
	return nil
}

var denseCritical = []string{
	"op", "partition.by_grid",
	"core.audit", "core.runner", "core.index", "core.prepare", "core.prewarm", "core.sweep", "core.fdr",
}

func runDenseSweep(ctx context.Context, cfg runConfig) (*outcome, error) {
	return runWorkload(cfg.sizes.setupRepeats,
		func() (*denseSweep, error) { return setupDenseSweep(ctx, cfg) },
		func(*denseSweep) error { return nil },
		func(st *denseSweep) (*outcome, error) { return st.measure(ctx, cfg) })
}

func (st *denseSweep) measure(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{tailAt: 50, layers: series{}, critical: denseCritical}
	if cfg.trace {
		out.tr = newTracer()
	}
	start := time.Now()
	for op := 0; time.Since(start) < cfg.seconds; op++ {
		var tr *tracer
		if op%2 == 1 {
			tr = out.tr
		}
		out.attempted++
		mark, cpu := markAlloc(), cpuSeconds()
		t0 := time.Now()
		part, res, snap, err := st.op(ctx, tr, op)
		lat := time.Since(t0).Seconds()
		cpu = cpuSeconds() - cpu
		allocMB, gcs := mark.perOp(1)
		if err == nil {
			err = st.check(res, snap)
		}
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("op %d: %v", op, err))
			continue
		}
		if tr != nil {
			out.tracedLat = append(out.tracedLat, lat)
			recordCore(out.layers, snap, res.EligibleRegions)
			out.layers.add("partition.regions_nonempty", float64(len(part.NonEmpty(1))))
			out.layers.add("partition.dropped_out_of_grid", float64(len(st.obs)-part.TotalN))
		} else {
			out.lat = append(out.lat, lat)
			out.cpu += cpu
		}
		out.layers.add("go.alloc_mb_per_op", allocMB)
		out.layers.add("go.gc_cycles_per_op", gcs)
		out.layers.add("shape.scanned_pairs", float64(snap.Counter(obs.MAuditPairsScanned)))
	}
	out.throughput = ratio(float64(len(out.lat)), sum(out.lat))
	out.rssMB = peakRSSMB()
	out.layers.add("shape.rows", float64(len(st.obs)))
	out.layers.add("shape.bytes", float64(len(st.obs)*observationBytes))
	out.layers.add("shape.eligible_regions", float64(st.ref.EligibleRegions))
	out.layers.add("shape.rescored_pairs", 0)
	return out, nil
}
