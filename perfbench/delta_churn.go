package main

import (
	"context"
	"fmt"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// delta_churn: a closed loop through the library over a live R=1000
// partitioning. Each op applies a state-neutral batch — delete 30 of one
// seeded region's observations, reinsert them — and re-audits
// incrementally. It is the only workload for delta maintenance and
// rescoring, and it skips table, hmda, server and jobs, so a change to any
// of those must show no change here.

// churnDeletes is how many observations a batch deletes and reinserts.
const churnDeletes = 30

type deltaChurn struct {
	obs []partition.Observation
	dp  *partition.DeltaPartitioning
	da  *core.DeltaAuditor
	cfg core.Config
	ref *core.Result // cold audit of the universe; every op must return it
}

func setupDeltaChurn(ctx context.Context, cfg runConfig) (*deltaChurn, error) {
	obsv, grid := experiments.DenseAuditObservations(cfg.sizes.deltaRegions, cfg.seed)
	acfg := core.DefaultConfig()
	dp := partition.NewDeltaByGrid(grid, obsv, partition.Options{Seed: cfg.seed})
	da, err := core.NewDeltaAuditor(dp, acfg)
	if err != nil {
		return nil, fmt.Errorf("delta auditor: %w", err)
	}
	first, _, err := da.Audit(ctx)
	if err != nil {
		return nil, fmt.Errorf("seeding delta audit: %w", err)
	}
	ref, err := core.AuditContext(ctx, dp.Snapshot(), acfg)
	if err != nil {
		return nil, fmt.Errorf("cold reference audit: %w", err)
	}
	if err := sameResult(first, ref); err != nil {
		return nil, fmt.Errorf("seeding delta audit differs from the cold audit: %w", err)
	}
	st := &deltaChurn{obs: obsv, dp: dp, da: da, cfg: acfg, ref: ref}
	// Two incremental passes let the auditor's caches reach steady state.
	for r := 0; r < 2; r++ {
		if _, _, _, err := st.op(ctx, nil, 0, r); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// op applies region r's churn batch and re-audits.
func (st *deltaChurn) op(ctx context.Context, tr *tracer, op, r int) (*core.Result, core.DeltaStats, time.Duration, error) {
	root := tr.begin(op, -1, "op")
	defer tr.end(root)
	first := r * experiments.DenseAuditRegionPop
	batch := make([]partition.Update, 0, 2*churnDeletes)
	for _, o := range st.obs[first : first+churnDeletes] {
		batch = append(batch, partition.Update{Op: partition.UpdateDelete, Obs: o})
	}
	for _, o := range st.obs[first : first+churnDeletes] {
		batch = append(batch, partition.Update{Op: partition.UpdateInsert, Obs: o})
	}
	s := tr.begin(op, root, "partition.delta_apply")
	err := st.dp.Apply(batch)
	tr.end(s)
	if err != nil {
		return nil, core.DeltaStats{}, 0, fmt.Errorf("apply: %w", err)
	}
	s = tr.begin(op, root, "partition.snapshot")
	st.dp.Snapshot()
	tr.end(s)
	s = tr.begin(op, root, "core.delta_audit")
	start := time.Now()
	res, ds, err := st.da.Audit(ctx)
	took := time.Since(start)
	tr.end(s)
	if err != nil {
		return nil, core.DeltaStats{}, 0, fmt.Errorf("delta audit: %w", err)
	}
	return res, ds, took, nil
}

var deltaCritical = []string{"op", "partition.delta_apply", "partition.snapshot", "core.delta_audit"}

func runDeltaChurn(ctx context.Context, cfg runConfig) (*outcome, error) {
	return runWorkload(cfg.sizes.setupRepeats,
		func() (*deltaChurn, error) { return setupDeltaChurn(ctx, cfg) },
		func(*deltaChurn) error { return nil },
		func(st *deltaChurn) (*outcome, error) { return st.measure(ctx, cfg) })
}

func (st *deltaChurn) measure(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{tailAt: 95, layers: series{}, critical: deltaCritical}
	if cfg.trace {
		out.tr = newTracer()
	}
	rng := stats.NewRNG(cfg.seed ^ saltDelta)
	var last *core.Result
	start := time.Now()
	for op := 0; time.Since(start) < cfg.seconds; op++ {
		var tr *tracer
		if op%2 == 1 {
			tr = out.tr
		}
		r := rng.Intn(cfg.sizes.deltaRegions)
		out.attempted++
		mark, cpu := markAlloc(), cpuSeconds()
		t0 := time.Now()
		res, ds, took, err := st.op(ctx, tr, op, r)
		lat := time.Since(t0).Seconds()
		cpu = cpuSeconds() - cpu
		allocMB, gcs := mark.perOp(1)
		switch {
		case err != nil:
		case ds.FullSweep:
			err = fmt.Errorf("single-region batch fell back to a full sweep")
		default:
			err = sameResult(res, st.ref)
		}
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("op %d (region %d): %v", op, r, err))
			continue
		}
		last = res
		if tr != nil {
			out.tracedLat = append(out.tracedLat, lat)
			recordDelta(out.layers, ds, took)
		} else {
			out.lat = append(out.lat, lat)
			out.cpu += cpu
		}
		out.layers.add("go.alloc_mb_per_op", allocMB)
		out.layers.add("go.gc_cycles_per_op", gcs)
		// Scanned pairs are, as on the batch path, the probe windows' pairs
		// that survive the summary bounds into the exact gate cascade; the
		// delta pass's DeltaStats documents them equal to its rescored pairs.
		out.layers.add("shape.scanned_pairs", float64(ds.WindowCandidates-ds.BoundsRejections))
		out.layers.add("shape.rescored_pairs", float64(ds.RescoredPairs))
	}
	out.throughput = ratio(float64(len(out.lat)), sum(out.lat))
	out.rssMB = peakRSSMB()
	out.layers.add("shape.rows", float64(len(st.obs)))
	out.layers.add("shape.bytes", float64(len(st.obs)*observationBytes))
	out.layers.add("shape.eligible_regions", float64(st.ref.EligibleRegions))

	// The final delta result must equal a cold audit of the final snapshot;
	// in a traced run the cold audits also time the delta path's base.
	var cold []float64
	for k := 0; k < 1+2*boolInt(cfg.trace); k++ {
		t0 := time.Now()
		res, err := core.AuditContext(ctx, st.dp.Snapshot(), st.cfg)
		cold = append(cold, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("cold audit of the final snapshot: %w", err)
		}
		if last != nil {
			if err := sameResult(last, res); err != nil {
				out.failed++
				out.notes = append(out.notes, fmt.Sprintf("final delta result differs from a cold audit: %v", err))
			}
		}
	}
	out.layers.add("core.delta_over_cold", ratio(median(append(out.lat, out.tracedLat...)), median(cold)))
	return out, nil
}

// recordDelta adds one incremental pass's funnel.
func recordDelta(s series, ds core.DeltaStats, took time.Duration) {
	s.add("core.delta_dirty_regions", float64(ds.DirtyRegions))
	s.add("core.delta_invalidated_pairs", float64(ds.InvalidatedPairs))
	s.add("core.delta_reused_pairs", float64(ds.ReusedPairs))
	s.add("core.delta_rescored_pairs", float64(ds.RescoredPairs))
	s.add("core.delta_full_sweeps", float64(boolInt(ds.FullSweep)))
	s.add("core.delta_us_per_rescored_pair", 1e6*ratio(took.Seconds(), float64(ds.RescoredPairs)))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
