package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// spreadFixture is 24 cells of 300 individuals with one income distribution,
// alternately minority-heavy and not, whose approval rates step by one
// point from 0.55: the dissimilar pairs' rate gaps run from a few points,
// which Eta exits, to 23, so their p-values spread from far above FDR's q
// down to the least the null can give, with many between Alpha and q.
func spreadFixture() *partition.Partitioning {
	const cells, perCell = 24, 300
	rng := stats.NewRNG(0x5C0E)
	var obs []partition.Observation
	for c := 0; c < cells; c++ {
		minority := 0.1
		if c%2 == 0 {
			minority = 0.8
		}
		positives := int(math.Round((0.55 + 0.01*float64(c)) * perCell))
		for i := 0; i < perCell; i++ {
			obs = append(obs, partition.Observation{
				Loc:       geo.Pt(float64(c)+0.5, 0.5),
				Positive:  i < positives,
				Protected: rng.Bernoulli(minority),
				Income:    60000 + 9000*rng.NormFloat64(),
			})
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(cells, 1)), cells, 1)
	return partition.ByGrid(grid, obs, partition.Options{Seed: 5})
}

// TestReportedScoresExact pins where the engine spends its gate scores: only
// on candidates at or below the flag cut (Config.nullCut), the only ones
// either flagging rule can report. For every built-in similarity ×
// dissimilarity pairing at each of its thresholds, per-pair Alpha and FDR
// 0.1, dense and indexed candidate generation, and the kernel fixtures and
// spreadFixture:
// every flagged pair's SimScore and DissScore must be the metric's Score of
// the pair, bit for bit; every candidate a shard keeps (keepAll) must carry
// those exact scores at or below the cut and zero scores above it; and under
// FDR a three-shard merge must equal the batch result.
func TestReportedScoresExact(t *testing.T) {
	fixtures := append(kernelFixtures(t), struct {
		name string
		p    *partition.Partitioning
	}{"spread", spreadFixture()})
	for _, gp := range builtinPairings() {
		// flagged counts flagged pairs; fdrOnly those FDR flags above Alpha,
		// whose scores per-pair Alpha would never have asked for; above the
		// kept candidates above the cut.
		flagged, fdrOnly, above := 0, 0, 0
		for _, fdr := range []float64{0, 0.1} {
			for _, gen := range []CandidateGen{CandidateDense, CandidateIndexed} {
				for _, eps := range gp.eps {
					for _, delta := range gp.deltas {
						for _, fx := range fixtures {
							cfg := DefaultConfig()
							cfg.MinRegionSize = 10
							cfg.MCWorlds = 199
							cfg.Similarity, cfg.Epsilon = gp.sim, eps
							cfg.Dissimilarity, cfg.Delta = gp.diss, delta
							cfg.FDR = fdr
							cfg.CandidateGen = gen
							name := fmt.Sprintf("%s/%s@%v/%s@%v/fdr=%v/gen=%d", fx.name, gp.sim.Name(), eps, gp.diss.Name(), delta, fdr, gen)
							regions := fx.p.Regions
							// The engine scores a pair in eligible-list order, the
							// lower region label first, before orienting it.
							exact := func(pr UnfairPair) (sim, diss float64) {
								a, b := &regions[min(pr.I, pr.J)], &regions[max(pr.I, pr.J)]
								return cfg.Similarity.Score(a, b), cfg.Dissimilarity.Score(a, b)
							}
							checkScores := func(what string, pr UnfairPair, wantSim, wantDiss float64) {
								if math.Float64bits(pr.SimScore) != math.Float64bits(wantSim) || math.Float64bits(pr.DissScore) != math.Float64bits(wantDiss) {
									t.Fatalf("%s: %s pair (%d,%d) p %v: scores (%v, %v), want (%v, %v)",
										name, what, pr.I, pr.J, pr.P, pr.SimScore, pr.DissScore, wantSim, wantDiss)
								}
							}

							res, err := Audit(fx.p, cfg)
							if err != nil {
								t.Fatal(err)
							}
							for _, pr := range res.Pairs {
								sim, diss := exact(pr)
								checkScores("flagged", pr, sim, diss)
								if pr.P > cfg.Alpha {
									fdrOnly++
								}
							}
							flagged += len(res.Pairs)

							shards := make([]*ShardResult, 3)
							kept := 0
							for s := range shards {
								if shards[s], err = AuditShard(context.Background(), fx.p, cfg, s, len(shards)); err != nil {
									t.Fatal(err)
								}
								for _, pr := range shards[s].Candidates {
									kept++
									if pr.P > cfg.nullCut() {
										above++
										checkScores("above-cut candidate", pr, 0, 0)
										continue
									}
									sim, diss := exact(pr)
									checkScores("reportable candidate", pr, sim, diss)
								}
							}
							if kept != res.Candidates {
								t.Fatalf("%s: shards kept %d candidates, batch counted %d", name, kept, res.Candidates)
							}
							if fdr > 0 {
								merged, err := MergeShards(cfg, shards)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(merged, res) {
									t.Fatalf("%s: merged shards differ from batch\n merged %+v\n batch  %+v", name, merged, res)
								}
							}
						}
					}
				}
			}
		}
		if flagged == 0 || fdrOnly == 0 || above == 0 {
			t.Fatalf("%s × %s: %d flagged pairs, %d of them above Alpha, %d candidates above the cut; the score checks prove less than they claim",
				gp.sim.Name(), gp.diss.Name(), flagged, fdrOnly, above)
		}
	}
}
