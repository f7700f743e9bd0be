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
// worker forever in the Mann–Whitney tie-grouping merge. A region whose
// income sample holds a NaN is not comparable (its similarity P is NaN,
// which the gate rejects), so the audit must finish — well inside the
// deadline, against ~30 ms for the clean universe — and flag no pair with
// such a region.
func TestAuditTerminatesOnNaNIncome(t *testing.T) {
	obs, grid := DenseAuditObservations(400, 1)
	for i := 0; i < len(obs); i += 50 {
		obs[i].Income = math.NaN()
	}
	p := partition.ByGrid(grid, obs, partition.Options{Seed: 1})
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
	hasNaN := make(map[int]bool)
	for i := range p.Regions {
		for _, v := range p.Regions[i].IncomeSample() {
			if math.IsNaN(v) {
				hasNaN[i] = true
			}
		}
	}
	if len(hasNaN) == 0 {
		t.Fatal("no region kept a NaN income; the repro exercises nothing")
	}
	for _, pr := range out.res.Pairs {
		if hasNaN[pr.I] || hasNaN[pr.J] {
			t.Errorf("flagged pair (%d, %d) involves a region with a NaN income", pr.I, pr.J)
		}
	}
}
