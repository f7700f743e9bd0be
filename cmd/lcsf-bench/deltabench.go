package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/partition"
)

// deltaBenchSizes are the universe sizes the delta-audit trajectory tracks:
// the README's headline R=400 and the half-million-pair R=1000 stress point,
// matching two of the cold-audit rows so the delta/cold ratio is directly
// comparable.
var deltaBenchSizes = []int{400, 1000}

// deltaBenchBatch is the update batch one benchmark iteration applies: this
// many deletes from a single region followed by reinserts of the same
// observations — the single-region-touching workload the incremental engine
// is built for, and state-neutral so every iteration times identical work.
const deltaBenchBatch = 30

// deltaBenchResult is one row of the delta trajectory in BENCH_audit.json.
type deltaBenchResult struct {
	Regions int `json:"regions"`
	// CPUs is the machine's logical CPU count when the row was recorded.
	CPUs int `json:"cpus"`
	// BatchUpdates is the updates per benchmark batch (deletes + reinserts).
	BatchUpdates int `json:"batch_updates"`
	// UpdatesPerSec is the partition-maintenance throughput: canonical-order
	// updates applied per second, audits excluded.
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// DeltaNsPerOp times one batch apply plus one incremental re-audit.
	DeltaNsPerOp int64 `json:"delta_ns_per_op"`
	// ColdNsPerOp times one batch audit of the same snapshot.
	ColdNsPerOp int64 `json:"cold_ns_per_op"`
	// DeltaOverCold is DeltaNsPerOp/ColdNsPerOp — the re-audit latency as a
	// fraction of the cold batch run it replaces.
	DeltaOverCold float64 `json:"delta_over_cold"`

	// Funnel of one instrumented incremental pass.
	DirtyRegions     int `json:"dirty_regions"`
	InvalidatedPairs int `json:"invalidated_pairs"`
	ReusedPairs      int `json:"reused_pairs"`
	RescoredPairs    int `json:"rescored_pairs"`
}

// churnBatch builds the state-neutral single-region batch for region r:
// delete deltaBenchBatch of its observations, then reinsert them.
func churnBatch(obs []partition.Observation, r int) []partition.Update {
	out := make([]partition.Update, 0, 2*deltaBenchBatch)
	start := r * experiments.DenseAuditRegionPop
	for _, o := range obs[start : start+deltaBenchBatch] {
		out = append(out, partition.Update{Op: partition.UpdateDelete, Obs: o})
	}
	for _, o := range obs[start : start+deltaBenchBatch] {
		out = append(out, partition.Update{Op: partition.UpdateInsert, Obs: o})
	}
	return out
}

// runDeltaBench benchmarks the incremental engine on the R-region dense
// universe under the default configuration: update throughput, re-audit
// latency against single-region batches, and the cold-audit baseline — then
// verifies the delta result is byte-identical to a cold batch audit of the
// final snapshot before reporting anything.
func runDeltaBench(regions int) (deltaBenchResult, error) {
	obs, grid := experiments.DenseAuditObservations(regions, 1)
	cfg := core.DefaultConfig()
	dp := partition.NewDeltaByGrid(grid, obs, partition.Options{Seed: 1})
	da, err := core.NewDeltaAuditor(dp, cfg)
	if err != nil {
		return deltaBenchResult{}, err
	}
	ctx := context.Background()
	if _, _, err := da.Audit(ctx); err != nil {
		return deltaBenchResult{}, fmt.Errorf("seed audit: %w", err)
	}

	var benchErr error
	fail := func(b *testing.B, err error) {
		benchErr = err
		b.Fatal(err)
	}

	// Update throughput alone: apply state-neutral batches, no audits.
	upd := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := dp.Apply(churnBatch(obs, i%regions)); err != nil {
				fail(b, err)
			}
		}
	})
	if benchErr != nil {
		return deltaBenchResult{}, benchErr
	}
	// Drain the dirty set the throughput loop left behind.
	if _, _, err := da.Audit(ctx); err != nil {
		return deltaBenchResult{}, err
	}

	// Re-audit latency: one single-region batch plus one incremental audit.
	res := deltaBenchResult{Regions: regions, CPUs: runtime.NumCPU(), BatchUpdates: 2 * deltaBenchBatch}
	var last core.DeltaStats
	del := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := dp.Apply(churnBatch(obs, i%regions)); err != nil {
				fail(b, err)
			}
			var st core.DeltaStats
			if _, st, err = da.Audit(ctx); err != nil {
				fail(b, err)
			}
			if st.FullSweep {
				fail(b, fmt.Errorf("single-region batch fell back to a full sweep"))
			}
			last = st
		}
	})
	if benchErr != nil {
		return deltaBenchResult{}, benchErr
	}

	// Cold baseline on the identical snapshot.
	snap := dp.Snapshot()
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Audit(snap, cfg); err != nil {
				fail(b, err)
			}
		}
	})
	if benchErr != nil {
		return deltaBenchResult{}, benchErr
	}

	// The correctness contract, enforced before any number is reported: the
	// delta engine's answer for the final snapshot must be byte-identical to
	// the batch engine's.
	deltaRes, _, err := da.Audit(ctx)
	if err != nil {
		return deltaBenchResult{}, err
	}
	coldRes, err := core.Audit(dp.Snapshot(), cfg)
	if err != nil {
		return deltaBenchResult{}, err
	}
	if err := equalResults(deltaRes, coldRes); err != nil {
		return deltaBenchResult{}, fmt.Errorf("R=%d: delta result diverged from cold batch audit: %w", regions, err)
	}

	if ns := upd.NsPerOp(); ns > 0 {
		res.UpdatesPerSec = float64(2*deltaBenchBatch) / (float64(ns) / 1e9)
	}
	res.DeltaNsPerOp = del.NsPerOp()
	res.ColdNsPerOp = cold.NsPerOp()
	if res.ColdNsPerOp > 0 {
		res.DeltaOverCold = float64(res.DeltaNsPerOp) / float64(res.ColdNsPerOp)
	}
	res.DirtyRegions = last.DirtyRegions
	res.InvalidatedPairs = last.InvalidatedPairs
	res.ReusedPairs = last.ReusedPairs
	res.RescoredPairs = last.RescoredPairs
	return res, nil
}

// equalResults demands byte-identity of two audit results; UnfairPair has
// only scalar fields, so != is a bitwise comparison.
func equalResults(a, b *core.Result) error {
	if a.Candidates != b.Candidates || a.EligibleRegions != b.EligibleRegions || a.GlobalRate != b.GlobalRate { //lint:floateq-ok byte-identity-assertion
		return fmt.Errorf("summary differs: candidates %d/%d, eligible %d/%d, rate %v/%v",
			a.Candidates, b.Candidates, a.EligibleRegions, b.EligibleRegions, a.GlobalRate, b.GlobalRate)
	}
	if len(a.Pairs) != len(b.Pairs) {
		return fmt.Errorf("flagged %d pairs vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return fmt.Errorf("pair %d differs: %+v vs %+v", i, a.Pairs[i], b.Pairs[i])
		}
	}
	return nil
}

// writeDeltaBench runs the delta benchmark at every tracked size and appends
// the rows to the perf-trajectory file at path: an existing BENCH_audit.json
// keeps its cold-audit rows and metadata, and only the delta_benchmarks
// section is replaced.
func writeDeltaBench(path string) error {
	out := auditBenchFile{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Config:    "DefaultConfig",
	}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &out); err != nil {
			return fmt.Errorf("existing %s is not a bench file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	out.DeltaBenchmarks = nil
	for _, r := range deltaBenchSizes {
		res, err := runDeltaBench(r)
		if err != nil {
			return fmt.Errorf("R=%d: %w", r, err)
		}
		fmt.Printf("delta-bench R=%d: %.0f updates/sec, re-audit %.4fs vs cold %.3fs (%.1f%%), reused %d / rescored %d pairs\n",
			r, res.UpdatesPerSec, float64(res.DeltaNsPerOp)/1e9, float64(res.ColdNsPerOp)/1e9,
			100*res.DeltaOverCold, res.ReusedPairs, res.RescoredPairs)
		out.DeltaBenchmarks = append(out.DeltaBenchmarks, res)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
