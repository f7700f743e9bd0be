package core

import (
	"fmt"
	"math"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// randomAuditPartitioning builds a partitioning with randomized per-cell
// rates, protected shares, sizes, and income regimes — including clustered
// shares (so exclude-band windows actually exclude), near-identical means (so
// include-interval windows bite), disjoint income ranges (so the rank tests'
// range bounds fire), and the occasional empty cell.
func randomAuditPartitioning(rng *stats.RNG, cells int) *partition.Partitioning {
	shareLevels := []float64{0.1, 0.12, 0.5, 0.85}
	incomeBase := []float64{50_000, 52_000, 250_000} // 250k is range-disjoint from the rest
	var obs []partition.Observation
	for c := 0; c < cells; c++ {
		n := int(rng.Float64() * 250)
		if rng.Float64() < 0.1 {
			n = 0
		}
		rate := 0.05 + 0.9*rng.Float64()
		share := shareLevels[int(rng.Float64()*float64(len(shareLevels)))%len(shareLevels)]
		base := incomeBase[int(rng.Float64()*float64(len(incomeBase)))%len(incomeBase)]
		for i := 0; i < n; i++ {
			obs = append(obs, partition.Observation{
				Loc:       geo.Pt(float64(c)+0.5, 0.5),
				Positive:  rng.Bernoulli(rate),
				Protected: rng.Bernoulli(share),
				Income:    base + 400*rng.Float64(), // width 400 keeps the bases range-disjoint
			})
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(float64(cells), 1)), cells, 1)
	return partition.ByGrid(grid, obs, partition.Options{Seed: rng.Uint64()})
}

// prunableCase pairs a metric with the thresholds its soundness is checked at.
type prunableCase struct {
	metric     PrunableMetric
	thresholds []float64
}

func prunableCases() []prunableCase {
	return []prunableCase{
		{ZScoreDissimilarity{}, []float64{0.001, 0.05, 0.3}},
		{StatParityDissimilarity{}, []float64{0.05, 0.3}},
		{DisparateImpactDissimilarity{}, []float64{0.5, 0.8}},
		{MannWhitneySimilarity{}, []float64{0.001, 0.05}},
		{KolmogorovSmirnovSimilarity{}, []float64{0.001, 0.05}},
		{WelchTSimilarity{}, []float64{0.001, 0.05}},
		{MeanGapSimilarity{}, []float64{0.1, 0.5}},
	}
}

// TestPrunableSoundness is the load-bearing property test of the pruning
// layer: across randomized region universes, whenever a metric's O(1) summary
// machinery claims a pair can be skipped — Bounds answering true, or the
// probe's window not admitting the partner's key — the exact gate must reject
// that pair. A single violation would mean the indexed audit can silently
// drop a flagged pair.
func TestPrunableSoundness(t *testing.T) {
	rng := stats.NewRNG(20250806)
	boundsFired := map[string]int{}
	windowExcluded := map[string]int{}

	for trial := 0; trial < 30; trial++ {
		p := randomAuditPartitioning(rng, 3+int(rng.Float64()*6))
		regions := make([]*partition.Region, len(p.Regions))
		for i := range p.Regions {
			regions[i] = &p.Regions[i]
		}
		ix := partition.NewSummaryIndexWorkers(regions, 1)
		env := &ix.Stats

		for _, tc := range prunableCases() {
			for _, thr := range tc.thresholds {
				for i := range regions {
					for j := range regions {
						if i == j {
							continue
						}
						a, b := regions[i], regions[j]
						sa, sb := &ix.Summaries[i], &ix.Summaries[j]
						passes := tc.metric.Pass(tc.metric.Score(a, b), thr)

						if tc.metric.Bounds(sa, sb, thr, env) {
							boundsFired[tc.metric.Name()]++
							if passes {
								t.Fatalf("%s@%v: Bounds claimed reject but gate passes (pair %d,%d trial %d)",
									tc.metric.Name(), thr, i, j, trial)
							}
						}
						if w, ok := tc.metric.PruneWindow(sa, thr, env); ok {
							key := summaryWindowKey(sb, w.Dim)
							if !w.admits(key) {
								windowExcluded[tc.metric.Name()]++
								if passes {
									t.Fatalf("%s@%v: window %+v excluded key %v but gate passes (pair %d,%d trial %d)",
										tc.metric.Name(), thr, w, key, i, j, trial)
								}
							}
						}
					}
				}
			}
		}
	}

	// The property is vacuous for a metric whose pruning never fires; require
	// every Bounds implementation and every window-offering metric to have
	// actually excluded pairs across the trials.
	for _, tc := range prunableCases() {
		if boundsFired[tc.metric.Name()] == 0 {
			t.Errorf("%s: Bounds never fired; fixture does not exercise it", tc.metric.Name())
		}
		if _, ok := tc.metric.PruneWindow(&partition.RegionSummary{}, tc.thresholds[0], &partition.SummaryStats{}); ok || alwaysHasWindow(tc.metric) {
			if windowExcluded[tc.metric.Name()] == 0 {
				t.Errorf("%s: windows never excluded a pair; fixture does not exercise them", tc.metric.Name())
			}
		}
	}
}

// alwaysHasWindow reports whether the metric offers windows for ordinary
// probes (the rank tests never do; their zero-summary probe also returns ok
// false, so the coverage check above needs this second signal).
func alwaysHasWindow(m PrunableMetric) bool {
	switch m.(type) {
	case ZScoreDissimilarity, StatParityDissimilarity, DisparateImpactDissimilarity,
		MeanGapSimilarity, WelchTSimilarity:
		return true
	}
	return false
}

// summaryWindowKey mirrors the engine's key extraction for a window's
// dimension.
func summaryWindowKey(s *partition.RegionSummary, d PruneDim) float64 {
	switch d {
	case PruneProtectedShare:
		return s.ProtectedShare
	case PrunePositiveRate:
		return s.PositiveRate
	case PruneIncomeMean:
		return s.IncomeMean
	}
	panic(fmt.Sprintf("window with no dimension: %d", d))
}

// TestPruneWindowEmptyMatchesNothing pins the empty-window convention used
// for probes that can never pass (NaN mean, too-small sample).
func TestPruneWindowEmptyMatchesNothing(t *testing.T) {
	w := emptyWindow(PruneIncomeMean)
	for _, key := range []float64{-1e300, -1, 0, 0.5, 1, 1e300} {
		if w.admits(key) {
			t.Fatalf("empty window admitted %v", key)
		}
	}
}

// TestConservativeCriticalValues checks the direction of both critical-value
// searches: the z critical value must not exceed the exact boundary (its
// two-sided p at the returned z is still >= delta), and the t critical value
// must not undershoot (its p is <= eps).
func TestConservativeCriticalValues(t *testing.T) {
	for _, delta := range []float64{1e-6, 1e-3, 0.01, 0.05, 0.5} {
		z := conservativeZCrit(delta)
		if p := stats.TwoSidedP(z); p < delta {
			t.Errorf("conservativeZCrit(%v) = %v overshoots: TwoSidedP = %v < delta", delta, z, p)
		}
		// The memo must answer repeat and interleaved thresholds with the
		// bisection's exact bits.
		for _, d := range []float64{delta, 0.05, delta} {
			if got, want := conservativeZCrit(d), bisectZCrit(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("conservativeZCrit(%v) = %v, bisection gives %v", d, got, want)
			}
		}
	}
	for _, eps := range []float64{1e-6, 1e-3, 0.05} {
		for _, df := range []float64{1, 5, 50, 499} {
			tc := conservativeTCrit(eps, df)
			if p := stats.StudentTTwoSidedP(tc, df); p > eps {
				t.Errorf("conservativeTCrit(%v, df=%v) = %v undershoots: p = %v > eps", eps, df, tc, p)
			}
		}
	}
}

// admits reports whether a partner key survives the window, by the window's
// definition: inside [Lo, Hi], or outside (Lo, Hi) for an exclusion band.
// NaN keys are never admitted. The engine never asks this per key — it cuts
// whole ranges off the sorted summary orders — so the tests check the plan
// against it.
func (w PruneWindow) admits(key float64) bool {
	if w.Inside {
		return key >= w.Lo && key <= w.Hi
	}
	return key <= w.Lo || key >= w.Hi
}
