package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// manyRegions builds a 12-region fixture with enough planted structure that
// an audit produces gate rejections, candidates, Monte-Carlo simulation, and
// flagged pairs all at once — the workload the determinism battery needs to
// be meaningful.
func manyRegions(t testing.TB) *partition.Partitioning {
	t.Helper()
	rng := stats.NewRNG(2024)
	var obs []partition.Observation
	poor := func() float64 { return 52000 + 9500*rng.NormFloat64() }
	rich := func() float64 { return 160000 + 22000*rng.NormFloat64() }
	for cell := 0; cell < 12; cell++ {
		// Even cells are minority-heavy, odd cells are not, so even-odd
		// pairs pass the dissimilarity gate while same-parity pairs reject.
		minorityP := 0.1
		if cell%2 == 0 {
			minorityP = 0.8
		}
		// Odd cells approve at 0.70; even cells vary so the even-odd pairs
		// cover every phase: strong gaps that flag, a matched rate that
		// exits via Eta, and a marginal gap whose Monte-Carlo estimate is
		// non-significant.
		approveP := 0.70
		income := poor
		switch cell {
		case 0, 8:
			approveP = 0.35 // strong disadvantage -> flagged pairs
		case 2:
			approveP = 0.58 // mild disadvantage
		case 4:
			approveP = 0.70 // matched outcome -> Eta fast-path exits
		case 6:
			approveP = 0.63 // marginal gap -> simulated, not flagged
		case 10:
			approveP = 0.55
			income = rich // rich minority cell -> similarity rejections
		}
		if cell == 11 {
			income = rich // rich non-minority cell: pairs with 10 stay comparable
		}
		for i := 0; i < 400; i++ {
			obs = append(obs, partition.Observation{
				Loc:       geo.Pt(float64(cell)+0.5, 0.5),
				Positive:  rng.Bernoulli(approveP),
				Protected: rng.Bernoulli(minorityP),
				Income:    income(),
			})
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(12, 1)), 12, 1)
	return partition.ByGrid(grid, obs, partition.Options{Seed: 11})
}

// auditBytes serializes a result's pairs; byte equality is the strongest
// determinism claim (field-for-field, ordering included).
func auditBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.Marshal(res.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAuditByteIdenticalAcrossWorkers asserts the audit's core determinism
// contract: the same (input, Config) yields byte-identical pairs whether the
// audit runs on one goroutine or eight, and across repeated runs at the same
// seed — both in per-pair Alpha mode and under FDR control, whose exact
// p-value path and Benjamini–Hochberg filter must not reintroduce
// scheduling sensitivity.
func TestAuditByteIdenticalAcrossWorkers(t *testing.T) {
	p := manyRegions(t)
	for _, fdr := range []float64{0, 0.10} {
		cfg := DefaultConfig()
		cfg.Alpha = 0.05
		cfg.MCWorlds = 199
		cfg.FDR = fdr

		cfg.Workers = 1
		base, err := Audit(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Pairs) == 0 || base.Candidates == 0 {
			t.Fatalf("fdr=%v: fixture produced no work (pairs=%d candidates=%d)",
				fdr, len(base.Pairs), base.Candidates)
		}
		want := auditBytes(t, base)

		for _, workers := range []int{1, 2, 3, 8} {
			for run := 0; run < 3; run++ {
				cfg.Workers = workers
				res, err := Audit(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := auditBytes(t, res); !bytes.Equal(got, want) {
					t.Fatalf("fdr=%v workers=%d run=%d: pairs diverged\n got %s\nwant %s",
						fdr, workers, run, got, want)
				}
				if res.Candidates != base.Candidates || res.EligibleRegions != base.EligibleRegions {
					t.Fatalf("fdr=%v workers=%d: counts diverged: %+v vs %+v",
						fdr, workers, res, base)
				}
			}
		}
	}
}

// TestAuditSeedChangesMonteCarlo sanity-checks that determinism comes from
// the seed, not from a constant stream: a different seed may produce
// different p-values (and the same seed must reproduce them).
func TestAuditSeedChangesMonteCarlo(t *testing.T) {
	p := manyRegions(t)
	cfg := DefaultConfig()
	cfg.MCWorlds = 199
	// This fixture's flagged taus are so extreme that a 199-world null
	// sample never reaches them under any seed, pinning p at 1/(m+1). Test
	// and flag every gate-passing pair instead, so mid-distribution
	// p-values — the ones a seed actually moves — reach the result.
	cfg.Alpha = 0.99
	cfg.Eta = 0

	cfg.Seed = 1
	a1, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(auditBytes(t, a1), auditBytes(t, a2)) {
		t.Fatal("same seed must reproduce the audit exactly")
	}

	cfg.Seed = 2
	b, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a1.Pairs {
		if i >= len(b.Pairs) || a1.Pairs[i].P != b.Pairs[i].P {
			same = false
			break
		}
	}
	if same && len(a1.Pairs) == len(b.Pairs) {
		t.Error("changing the seed left every Monte-Carlo p-value identical; seeding looks dead")
	}
}

// TestAuditWorkerClamp is the regression test for the worker-clamp bug:
// Workers greater than the number of eligible regions used to collapse the
// audit to a single worker; it must instead clamp to len(eligible) (and to 1
// only when nothing is eligible).
func TestAuditWorkerClamp(t *testing.T) {
	p := manyRegions(t) // 12 eligible regions
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 99
	cfg.Workers = 64 // more than eligible; must clamp to 12, not 1
	col := newTestCollector()
	cfg.Collector = col

	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EligibleRegions != 12 {
		t.Fatalf("eligible = %d", res.EligibleRegions)
	}
	// Each worker goroutine reports exactly one shard timing, so the
	// histogram count is the effective worker count.
	shards := col.Snapshot().Histograms["audit.shard_seconds"].Count
	if shards != 12 {
		t.Errorf("effective workers = %d, want 12 (clamp to eligible, not to 1)", shards)
	}

	// Zero eligible regions must still run (with one bookkeeping shard) and
	// return an empty result.
	cfg.MinRegionSize = 1 << 30
	cfg.Collector = nil
	res, err = Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EligibleRegions != 0 || len(res.Pairs) != 0 {
		t.Errorf("empty-eligible audit = %+v", res)
	}
}
