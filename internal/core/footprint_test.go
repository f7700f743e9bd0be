package core_test

import (
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/stats"
)

// TestMannWhitneyPreparedFootprint pins the Mann–Whitney scorer's prepared
// state at O(total sample + R·65) on the R=400 dense universe: no slice it
// holds may scale with R × RankGridBuckets (the fine prefix table is built
// per probe row in the sweep's scratch, not per region), and each region's
// sample is aliased, not copied.
func TestMannWhitneyPreparedFootprint(t *testing.T) {
	const regions = 400
	p := experiments.DenseAuditPartitioning(regions, 1)
	cfg := core.DefaultConfig()
	if _, ok := cfg.Similarity.(core.MannWhitneySimilarity); !ok {
		t.Fatalf("default similarity is %T, want MannWhitneySimilarity", cfg.Similarity)
	}
	total := 0
	for _, idx := range p.NonEmpty(cfg.MinRegionSize) {
		total += len(p.Regions[idx].IncomeSample())
	}
	largest, aliased, err := core.PreparedFootprint(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bound := total + regions*(stats.RankCoarseGroups+2); largest > bound || largest >= regions*stats.RankGridBuckets {
		t.Errorf("largest prepared slice holds %d entries; want at most total sample + R·%d = %d, below R × buckets = %d",
			largest, stats.RankCoarseGroups+2, bound, regions*stats.RankGridBuckets)
	}
	if !aliased {
		t.Error("prepared samples are copies; want each to share its region's IncomeSample backing array")
	}
}
