package verify

import (
	"context"
	"fmt"
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// deltaScenarioConfig sizes the delta oracle's scenario. The sample cap is
// deliberately small relative to region populations (~200 observations per
// cell) so the canonical bottom-k income sampling actually selects — a cap
// above every region's size would leave the sampler untested.
func deltaScenarioConfig() ScenarioConfig {
	cfg := DefaultScenarioConfig()
	cfg.SampleCap = 96
	return cfg
}

// updateStream is one seeded delta workload: an initial observation set and
// update batches applied between audits.
type updateStream struct {
	name    string
	initial []partition.Observation
	batches [][]partition.Update
	// identityFinal marks streams whose final state equals the initial one
	// (delete-then-reinsert), letting the oracle pin the round trip back to
	// the seed audit's answer.
	identityFinal bool
}

// deltaStreams derives the four seeded workloads the issue names — inserts,
// deletes, mixed, delete-then-reinsert — from one scenario's observations.
// All randomness comes from rng, so the streams are reproducible.
func deltaStreams(rng *stats.RNG, s *Scenario) []updateStream {
	n := len(s.Obs)

	// Inserts: hold out a tail, then stream it in.
	heldOut := 450
	var insertBatches [][]partition.Update
	for start := n - heldOut; start < n; start += 150 {
		var b []partition.Update
		for _, o := range s.Obs[start : start+150] {
			b = append(b, partition.Update{Op: partition.UpdateInsert, Obs: o})
		}
		insertBatches = append(insertBatches, b)
	}

	// Deletes: start full, remove distinct random observations.
	del := distinctIndices(rng, n, 450)
	var deleteBatches [][]partition.Update
	for start := 0; start < len(del); start += 150 {
		var b []partition.Update
		for _, k := range del[start : start+150] {
			b = append(b, partition.Update{Op: partition.UpdateDelete, Obs: s.Obs[k]})
		}
		deleteBatches = append(deleteBatches, b)
	}

	// Mixed: hold out a tail, interleave inserts from it with deletes of
	// distinct initial observations.
	mixedHeld := 300
	mixedInitial := s.Obs[:n-mixedHeld]
	mixedDel := distinctIndices(rng, len(mixedInitial), 300)
	var mixedBatches [][]partition.Update
	for batch := 0; batch < 3; batch++ {
		var b []partition.Update
		for i := 0; i < 100; i++ {
			b = append(b,
				partition.Update{Op: partition.UpdateInsert, Obs: s.Obs[n-mixedHeld+batch*100+i]},
				partition.Update{Op: partition.UpdateDelete, Obs: mixedInitial[mixedDel[batch*100+i]]},
			)
		}
		mixedBatches = append(mixedBatches, b)
	}

	// Delete-then-reinsert: remove every observation in a handful of cells,
	// then put the exact same observations back. Localizing the churn keeps
	// most of the pair cache valid — the stream that checks reuse as well as
	// the round trip.
	churn := localizedIndices(s, 300)
	var gone, back []partition.Update
	for _, k := range churn {
		gone = append(gone, partition.Update{Op: partition.UpdateDelete, Obs: s.Obs[k]})
		back = append(back, partition.Update{Op: partition.UpdateInsert, Obs: s.Obs[k]})
	}

	return []updateStream{
		{name: "inserts", initial: s.Obs[:n-heldOut], batches: insertBatches},
		{name: "deletes", initial: s.Obs, batches: deleteBatches},
		{name: "mixed", initial: mixedInitial, batches: mixedBatches},
		{name: "delete-reinsert", initial: s.Obs, batches: [][]partition.Update{gone, back}, identityFinal: true},
	}
}

// localizedIndices returns the indices of at least want observations drawn
// from the smallest prefix of region labels that covers them — churn
// concentrated in a few cells, the canonical delta workload.
func localizedIndices(s *Scenario, want int) []int {
	byLabel := make([][]int, s.NumCells)
	for i, o := range s.Obs {
		if l := s.Assign(o.Loc); l >= 0 {
			byLabel[l] = append(byLabel[l], i)
		}
	}
	var out []int
	for l := 0; l < s.NumCells && len(out) < want; l++ {
		out = append(out, byLabel[l]...)
	}
	return out
}

// distinctIndices draws k distinct indices in [0, n) via a partial
// Fisher-Yates over the index space.
func distinctIndices(rng *stats.RNG, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// finalObs applies a stream's updates to a mirror of its initial multiset,
// yielding the final snapshot a cold batch audit consumes.
func finalObs(t *testing.T, st updateStream) []partition.Observation {
	t.Helper()
	live := append([]partition.Observation(nil), st.initial...)
	for _, b := range st.batches {
		for _, up := range b {
			if up.Op == partition.UpdateInsert {
				live = append(live, up.Obs)
				continue
			}
			found := -1
			for i, o := range live {
				if o == up.Obs {
					found = i
					break
				}
			}
			if found < 0 {
				t.Fatalf("stream deletes an observation not in the mirror: %+v", up.Obs)
			}
			live[found] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return live
}

// requireIdenticalResults asserts byte-identity of two audit results: the
// flagged set, every per-pair field (including the Monte-Carlo p-values),
// and the summary counts. UnfairPair has only scalar fields, so == is a
// bitwise comparison.
func requireIdenticalResults(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !EqualFlagged(FlaggedSet(got, nil), FlaggedSet(want, nil)) {
		t.Fatalf("%s: flagged sets differ:\n  got:  %s\n  want: %s",
			label, describeFlagged(FlaggedSet(got, nil)), describeFlagged(FlaggedSet(want, nil)))
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs vs %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d differs beyond the flagged set:\n  got:  %+v\n  want: %+v",
				label, i, got.Pairs[i], want.Pairs[i])
		}
	}
	if got.Candidates != want.Candidates || got.EligibleRegions != want.EligibleRegions ||
		got.GlobalRate != want.GlobalRate { //lint:floateq-ok byte-identity-assertion
		t.Fatalf("%s: summary differs: candidates %d/%d eligible %d/%d rate %v/%v",
			label, got.Candidates, want.Candidates, got.EligibleRegions, want.EligibleRegions,
			got.GlobalRate, want.GlobalRate)
	}
}

// TestDeltaMatchesBatch is the delta-vs-batch metamorphic oracle: for every
// engine configuration, both flagging rules (per-pair Alpha and
// Benjamini–Hochberg at FDR 0.1) and every seeded update stream, auditing
// through the incremental delta engine after each batch must end
// byte-identical — same flagged set, same per-pair p-values — to a cold
// batch audit of the final snapshot. DeltaDirtyFallback is pinned to 1 so the
// incremental path runs regardless of how widely a batch's dirty set
// spreads; the fallback policy itself is covered in internal/core. The two
// flagging rules run in lockstep over the same batches, and at least one
// incremental pass must flag different sets under them: otherwise an
// incremental pass that ignored Config.FDR would pass unnoticed.
func TestDeltaMatchesBatch(t *testing.T) {
	runDeltaOracle(t, NewScenario(stats.NewRNG(42), deltaScenarioConfig()))
}

// TestDeltaMatchesBatchTiedIncomes runs the delta-vs-batch oracle on the
// whole-thousand income variant of the same scenario, where every region's
// income sample is full of ties and the repaired regions' Mann–Whitney
// statistics run the tie-aware brackets and exact kernel.
func TestDeltaMatchesBatchTiedIncomes(t *testing.T) {
	runDeltaOracle(t, NewScenario(stats.NewRNG(42), deltaScenarioConfig()).WholeThousandIncomes())
}

// runDeltaOracle is the body of the delta-vs-batch oracle over one scenario.
func runDeltaOracle(t *testing.T, scen *Scenario) {
	streams := deltaStreams(stats.NewRNG(99), scen)
	fdrAxis := []float64{0, 0.1}

	type lane struct {
		cfg     core.Config
		dp      *partition.DeltaPartitioning
		da      *core.DeltaAuditor
		seedRes *core.Result
		res     *core.Result
		reused  int
	}
	for _, ec := range engineCases() {
		t.Run(ec.name, func(t *testing.T) {
			rulesDiffer := 0
			for _, stream := range streams {
				lanes := make([]*lane, len(fdrAxis))
				for i, fdr := range fdrAxis {
					cfg := metamorphicConfig(ec)
					cfg.DeltaDirtyFallback = 1
					cfg.FDR = fdr
					dp := partition.NewDeltaByGrid(scen.Grid, stream.initial, scen.Opts)
					da, err := core.NewDeltaAuditor(dp, cfg)
					if err != nil {
						t.Fatalf("%s fdr=%v: NewDeltaAuditor: %v", stream.name, fdr, err)
					}
					seedRes, seedSt, err := da.Audit(context.Background())
					if err != nil {
						t.Fatalf("%s fdr=%v: seed audit: %v", stream.name, fdr, err)
					}
					if !seedSt.FullSweep {
						t.Fatalf("%s fdr=%v: seed audit did not run a full sweep", stream.name, fdr)
					}
					lanes[i] = &lane{cfg: cfg, dp: dp, da: da, seedRes: seedRes}
				}

				for bi, b := range stream.batches {
					for _, l := range lanes {
						if err := l.dp.Apply(b); err != nil {
							t.Fatalf("%s fdr=%v: apply batch %d: %v", stream.name, l.cfg.FDR, bi, err)
						}
						res, st, err := l.da.Audit(context.Background())
						if err != nil {
							t.Fatalf("%s fdr=%v: delta audit %d: %v", stream.name, l.cfg.FDR, bi, err)
						}
						if st.FullSweep {
							t.Fatalf("%s fdr=%v: batch %d fell back to a full sweep with fallback pinned to 1", stream.name, l.cfg.FDR, bi)
						}
						l.res = res
						l.reused += st.ReusedPairs
					}
					if !EqualFlagged(FlaggedSet(lanes[0].res, nil), FlaggedSet(lanes[1].res, nil)) {
						rulesDiffer++
					}
				}

				final := finalObs(t, stream)
				for _, l := range lanes {
					label := fmt.Sprintf("%s fdr=%v", stream.name, l.cfg.FDR)
					if l.reused == 0 {
						t.Errorf("%s: no incremental pass reused any cached pair; the workload exercises nothing incremental", label)
					}
					cold := partition.NewDeltaByGrid(scen.Grid, final, scen.Opts)
					want, err := core.Audit(cold.Snapshot(), l.cfg)
					if err != nil {
						t.Fatalf("%s: cold audit: %v", label, err)
					}
					if len(want.Pairs) == 0 {
						t.Fatalf("%s: cold audit flags nothing; the oracle is vacuous — regenerate the scenario", label)
					}
					requireIdenticalResults(t, label, l.res, want)
					if stream.identityFinal {
						requireIdenticalResults(t, label+" round trip", l.res, l.seedRes)
					}
				}
			}
			if rulesDiffer == 0 {
				t.Error("Alpha and Benjamini–Hochberg flagged the same set on every incremental pass; the FDR axis is vacuous")
			}
		})
	}
}
