package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/partition"
)

// TestAuditTerminatesOnNaNIncome is the NaN-hang repro: the R=400 dense
// universe with a NaN income on every 50th observation once spun every audit
// worker forever in the Mann–Whitney tie-grouping merge. ByGrid now drops
// records with a non-finite income at the partition boundary, so no region
// may hold a NaN, the totals must miss exactly the NaN records, and the
// audit must finish well inside the deadline (~30 ms for the clean
// universe). The rank kernels' own NaN termination is covered in
// internal/stats.
func TestAuditTerminatesOnNaNIncome(t *testing.T) {
	obs, grid := DenseAuditObservations(400, 1)
	clean := partition.ByGrid(grid, obs, partition.Options{Seed: 1})
	dropped := 0
	for i := 0; i < len(obs); i += 50 {
		obs[i].Income = math.NaN()
		dropped++
	}
	p := partition.ByGrid(grid, obs, partition.Options{Seed: 1})
	if p.TotalN != clean.TotalN-dropped {
		t.Fatalf("TotalN = %d with %d NaN incomes, want %d - %d", p.TotalN, dropped, clean.TotalN, dropped)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 2

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := core.AuditContext(ctx, p, cfg)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("audit over NaN incomes did not return within 60s")
	}
	if out.err != nil {
		t.Fatalf("audit over NaN incomes: %v", out.err)
	}
	for i := range p.Regions {
		for _, v := range p.Regions[i].IncomeSample() {
			if math.IsNaN(v) {
				t.Fatalf("region %d kept a NaN income", i)
			}
		}
	}
	if len(out.res.Pairs) == 0 {
		t.Fatal("audit flagged nothing; the universe should still carry unfair pairs")
	}
}
