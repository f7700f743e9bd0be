package core_test

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/partition"
)

// TestDeltaPassCostFollowsChange pins the incremental pass's cost to the
// change instead of the universe. On the R=1000 dense universe, each of 20
// passes re-audits after a state-neutral batch on one region (30 of its
// observations deleted, then reinserted), and the heap bytes Audit allocates
// per pass must stay within two copies of the flagged set plus 64 KiB. A
// pass that copied, rescanned or re-windowed the whole ~47k-pair candidate
// cache would allocate several times that. Not parallel: TotalAlloc counts
// every goroutine's allocations.
func TestDeltaPassCostFollowsChange(t *testing.T) {
	const regions, deletes, passes = 1000, 30, 20
	obsv, grid := experiments.DenseAuditObservations(regions, 3)
	dp := partition.NewDeltaByGrid(grid, obsv, partition.Options{Seed: 3})
	da, err := core.NewDeltaAuditor(dp, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batch := make([]partition.Update, 2*deletes)
	pass := func(r int) (*core.Result, core.DeltaStats, uint64) {
		first := r * experiments.DenseAuditRegionPop
		for k, o := range obsv[first : first+deletes] {
			batch[k] = partition.Update{Op: partition.UpdateDelete, Obs: o}
			batch[deletes+k] = partition.Update{Op: partition.UpdateInsert, Obs: o}
		}
		if err := dp.Apply(batch); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, st, err := da.Audit(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, st, after.TotalAlloc - before.TotalAlloc
	}
	if _, _, err := da.Audit(ctx); err != nil {
		t.Fatal(err)
	}
	pass(0) // the first incremental pass sizes the reusable buffers

	var total uint64
	var flagged, rescored int
	for i := 1; i <= passes; i++ {
		res, st, bytes := pass(i * 37 % regions)
		if st.FullSweep {
			t.Fatalf("pass %d: a single-region batch fell back to a full sweep", i)
		}
		total += bytes
		flagged = len(res.Pairs)
		rescored += st.RescoredPairs
	}
	if flagged == 0 || rescored == 0 {
		t.Fatalf("%d flagged pairs, %d rescored pairs over %d passes; the bound proves nothing", flagged, rescored, passes)
	}
	perPass := total / passes
	bound := 2*uint64(flagged)*uint64(unsafe.Sizeof(core.UnfairPair{})) + 64<<10
	t.Logf("%d B per pass for %d flagged pairs and %.1f rescored pairs per pass (bound %d B)",
		perPass, flagged, float64(rescored)/passes, bound)
	if perPass > bound {
		t.Fatalf("an incremental pass allocates %d B, over %d B (2 x %d flagged pairs + 64 KiB)", perPass, bound, flagged)
	}
}
