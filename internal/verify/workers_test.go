package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/obs"
	"lcsf/internal/stats"
)

// pairBytes serializes a result's flagged pairs, every field included. Byte
// equality of this encoding is the strongest determinism claim available:
// same pairs, same p-values, same scores, same order.
func pairBytes(t *testing.T, res *core.Result) []byte {
	t.Helper()
	data, err := json.Marshal(res.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAuditDeterminismAcrossWorkers is the scheduling half of the battery:
// for each candidate plan, the
// audit over the seeded scenario must produce byte-identical flagged pairs —
// p-values and scores included — at Workers ∈ {1, 2, 4, 8}. Every parallel
// phase (partition aggregation, index build, plan estimation, the
// work-stealing sweep, p-value collection, the BH/FDR sort) merges
// deterministically, so nothing may move: not a pair, not a bit of a
// p-value, regardless of how rows were stolen between workers. Run under
// -race this doubles as the fan-out safety test for the null-store and
// sharded-counter hot paths.
func TestAuditDeterminismAcrossWorkers(t *testing.T) {
	scen := NewScenario(stats.NewRNG(42), DefaultScenarioConfig())

	for _, gen := range []struct {
		name string
		gen  core.CandidateGen
	}{{"dense", core.CandidateDense}, {"indexed", core.CandidateIndexed}} {
		t.Run(gen.name+"-cache", func(t *testing.T) {
			var want []byte
			var base *core.Result
			for _, workers := range []int{1, 2, 4, 8} {
				res := runAudit(t, scen, metamorphicConfig(engineCase{workers: workers, gen: gen.gen}))
				if workers == 1 {
					if len(res.Pairs) == 0 || res.Candidates == 0 {
						t.Fatalf("scenario produced no work (pairs=%d candidates=%d)",
							len(res.Pairs), res.Candidates)
					}
					base, want = res, pairBytes(t, res)
					continue
				}
				if got := pairBytes(t, res); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: pairs diverged from workers=1\n got %s\nwant %s",
						workers, got, want)
				}
				if res.Candidates != base.Candidates || res.EligibleRegions != base.EligibleRegions {
					t.Fatalf("workers=%d: funnel diverged: candidates %d vs %d, eligible %d vs %d",
						workers, res.Candidates, base.Candidates,
						res.EligibleRegions, base.EligibleRegions)
				}
			}
		})
	}
}

// TestTiedIncomeDeterminism runs the determinism battery on the scenario's
// whole-thousand income variant, where the Mann–Whitney gate settles pairs
// through its tie-aware brackets and exact kernel: byte-identical flagged
// pairs across Workers ∈ {1, 2, 4, 8} under both candidate plans, and across
// shard splits merged back with MergeShards.
func TestTiedIncomeDeterminism(t *testing.T) {
	p := NewScenario(stats.NewRNG(42), DefaultScenarioConfig()).WholeThousandIncomes().Partition()

	var want []byte
	var base *core.Result
	for _, gen := range []core.CandidateGen{core.CandidateDense, core.CandidateIndexed} {
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := metamorphicConfig(engineCase{workers: workers, gen: gen})
			col := obs.NewCollector(64)
			cfg.Collector = col
			res, err := core.Audit(p, cfg)
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			if base == nil {
				s := col.Snapshot()
				if len(res.Pairs) == 0 || res.Candidates == 0 {
					t.Fatalf("scenario produced no work (pairs=%d candidates=%d)", len(res.Pairs), res.Candidates)
				}
				if s.Counter(obs.MAuditSimBounded) == 0 || s.Counter(obs.MAuditSimExact) == 0 {
					t.Fatalf("similarity gate settled %d pairs by bounds and %d exactly; want both paths exercised",
						s.Counter(obs.MAuditSimBounded), s.Counter(obs.MAuditSimExact))
				}
				base, want = res, pairBytes(t, res)
				continue
			}
			if got := pairBytes(t, res); !bytes.Equal(got, want) || res.Candidates != base.Candidates {
				t.Fatalf("gen=%d workers=%d: result diverged from dense workers=1 (candidates %d vs %d)\n got %s\nwant %s",
					gen, workers, res.Candidates, base.Candidates, got, want)
			}
		}
	}

	cfg := metamorphicConfig(engineCase{workers: 2, gen: core.CandidateIndexed})
	for _, shards := range []int{2, 3, 7} {
		parts := make([]*core.ShardResult, 0, shards)
		for s := 0; s < shards; s++ {
			sr, err := core.AuditShard(context.Background(), p, cfg, s, shards)
			if err != nil {
				t.Fatalf("shards=%d: shard %d: %v", shards, s, err)
			}
			parts = append(parts, sr)
		}
		merged, err := core.MergeShards(cfg, parts)
		if err != nil {
			t.Fatalf("shards=%d: merge: %v", shards, err)
		}
		if got := pairBytes(t, merged); !bytes.Equal(got, want) || merged.Candidates != base.Candidates {
			t.Fatalf("shards=%d: merged result diverged from the batch audit\n got %s\nwant %s", shards, got, want)
		}
	}
}
