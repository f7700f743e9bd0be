package experiments

import (
	"testing"

	"lcsf/internal/census"
	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
)

// TestLARSimilarityGateMostlyBounded audits three full-volume Loan Depot
// LARs on the service's default 100×50 grid. Their incomes come in whole
// thousands with a 12,000 floor, so nearly every region holds ties, and the
// Mann–Whitney gate must still settle at least 95% of the pairs reaching it
// from its tie-aware brackets alone, leaving the exact kernel for the rest.
func TestLARSimilarityGateMostlyBounded(t *testing.T) {
	model := census.Generate(census.Config{Seed: DefaultSeed})
	ld, err := hmda.LenderByName("Loan Depot")
	if err != nil {
		t.Fatal(err)
	}
	grid := geo.NewGrid(geo.ContinentalUS, 100, 50)
	for _, seed := range []uint64{3, 5, 11} {
		ld.Seed = seed
		cfg := core.DefaultConfig()
		col := obs.NewCollector(16)
		cfg.Collector = col
		p := partition.ByGrid(grid, hmda.ToObservations(hmda.Generate(model, ld)), partition.Options{Seed: cfg.Seed})
		if _, err := core.Audit(p, cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := col.Snapshot()
		bounded, exact := s.Counter(obs.MAuditSimBounded), s.Counter(obs.MAuditSimExact)
		reached := s.Counter(obs.MAuditPairsScanned) - s.Counter(obs.MAuditDissRejections) - s.Counter(obs.MAuditEtaFastPath)
		if bounded+exact != reached || reached < 1000 {
			t.Fatalf("seed %d: %d bounded + %d exact similarity verdicts, %d pairs reaching the gate", seed, bounded, exact, reached)
		}
		if share := float64(bounded) / float64(reached); share < 0.95 {
			t.Errorf("seed %d: brackets settled %.1f%% of %d similarity verdicts, want >= 95%%", seed, 100*share, reached)
		}
		t.Logf("seed %d: %d eligible regions; brackets settled %d of %d similarity verdicts (%.2f%%)",
			seed, s.Counter(obs.MAuditEligible), bounded, reached, 100*float64(bounded)/float64(reached))
	}
}
