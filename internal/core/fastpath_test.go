package core

import (
	"fmt"
	"math"
	"testing"

	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// kernelFixtures are the partitionings the pair-kernel tests sweep: the
// tie-free cascade fixture and its whole-thousand tied twin.
func kernelFixtures(t testing.TB) []struct {
	name string
	p    *partition.Partitioning
} {
	return []struct {
		name string
		p    *partition.Partitioning
	}{
		{"cascade", makeCascadeFixture(t)},
		{"tied", makeTiedCascadeFixture(t)},
	}
}

// comparePair fails unless the two kernels agreed field-for-field.
func comparePair(t *testing.T, ctx string, got, want UnfairPair, gotOK, wantOK bool) {
	t.Helper()
	if gotOK != wantOK {
		t.Fatalf("%s: candidate verdicts diverged: got=%v want=%v", ctx, gotOK, wantOK)
	}
	if got != want {
		t.Fatalf("%s: pairs diverged\n got  %+v\n want %+v", ctx, got, want)
	}
}

// gatePairing is one built-in similarity × dissimilarity combination, with
// the thresholds TestPrunableSoundness's table gives each metric.
type gatePairing struct {
	sim, diss   PairMetric
	eps, deltas []float64
}

// builtinPairings crosses every built-in similarity metric with every
// built-in dissimilarity metric, so each SoA kind meets each other kind's
// gate in the cascade.
func builtinPairings() []gatePairing {
	thresholds := map[string][]float64{}
	for _, tc := range prunableCases() {
		thresholds[tc.metric.Name()] = tc.thresholds
	}
	var out []gatePairing
	for _, sim := range []PairMetric{MannWhitneySimilarity{}, KolmogorovSmirnovSimilarity{}, WelchTSimilarity{}, MeanGapSimilarity{}} {
		for _, diss := range []PairMetric{ZScoreDissimilarity{}, StatParityDissimilarity{}, DisparateImpactDissimilarity{}} {
			out = append(out, gatePairing{sim, diss, thresholds[sim.Name()], thresholds[diss.Name()]})
		}
	}
	return out
}

// TestFastPathMatchesExact sweeps every pair of each kernel fixture through
// auditPair twice, for every built-in similarity × dissimilarity pairing at
// each of their thresholds: once with the stock metrics, whose SoA kinds
// score from prepared caches (the z-test and Mann–Whitney gates also decide
// verdicts from |z| bands and bracketed |z| intervals and defer scores), and
// once with the metrics wrapped in unpreparedMetric, which scores every pair
// through the per-pair Score reference. Pairs, verdicts, and tallies must be
// bit-identical, and every candidate's Tau must be stats.PairLRT's. The
// claim is not "statistically equivalent" but "the same decision procedure
// executed lazily": verdicts replay the exact threshold comparisons,
// deferred scores resolve through kernels bit-identical to Score, and the
// Monte-Carlo null sample is a function of the pair's count signature alone
// — so any divergence, in any field, is a bug.
func TestFastPathMatchesExact(t *testing.T) {
	fixtures := kernelFixtures(t)
	for _, tc := range []struct {
		name       string
		keepScores bool
		fullStore  bool // null store filled to its bound: every sample lands in scratch
	}{
		{"keepScores", true, false},
		{"lazyScores", false, false},
		{"nullCache", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, gp := range builtinPairings() {
				candidates := 0
				for _, eps := range gp.eps {
					for _, delta := range gp.deltas {
						for _, fx := range fixtures {
							cfg := DefaultConfig()
							cfg.MinRegionSize = 10
							cfg.MCWorlds = 199
							cfg.Similarity, cfg.Epsilon = gp.sim, eps
							cfg.Dissimilarity, cfg.Delta = gp.diss, delta
							name := fmt.Sprintf("%s/%s/%s@%v/%s@%v", fx.name, tc.name, gp.sim.Name(), eps, gp.diss.Name(), delta)
							candidates += checkFastPath(t, name, fx.p, cfg, tc.keepScores, tc.fullStore)
						}
					}
				}
				if candidates == 0 {
					t.Fatalf("%s × %s: no fixture or threshold produced a candidate; comparisons prove nothing",
						gp.sim.Name(), gp.diss.Name())
				}
			}
		})
	}
}

// checkFastPath runs one TestFastPathMatchesExact case and returns its
// candidate count.
func checkFastPath(t *testing.T, name string, p *partition.Partitioning, cfg Config, keepScores, fullStore bool) int {
	t.Helper()
	ref := cfg
	ref.Similarity = unpreparedMetric{cfg.Similarity}
	ref.Dissimilarity = unpreparedMetric{cfg.Dissimilarity}

	// Two runners, not one: the null store is stateful, and a shared
	// instance would let the first sweep fill it for the second, skewing
	// the tallies without any kernel divergence.
	run := newTestRunner(t, p, cfg)
	refRun := newTestRunner(t, p, ref)
	if run.sim.kind == kindScoreOnly || run.diss.kind == kindScoreOnly {
		t.Fatalf("%s: a built-in metric has no SoA kind", name)
	}
	if fullStore {
		fillNullStore(t, run.nulls)
		fillNullStore(t, refRun.nulls)
	}
	var tally, refTally pairTally
	var sc, refSc scratch
	candidates := 0
	for ii := range run.regions {
		for jj := ii + 1; jj < len(run.regions); jj++ {
			got, ok := run.auditPair(ii, jj, &tally, &sc, keepScores, false)
			want, wantOK := refRun.auditPair(ii, jj, &refTally, &refSc, true, false)
			if !keepScores && ok && want.P > cfg.Alpha {
				// The lazy kernel only materializes scores for pairs its
				// caller would append; mirror the engine's filter before
				// comparing score fields.
				want.SimScore, want.DissScore = 0, 0
			}
			comparePair(t, name, got, want, ok, wantOK)
			if !ok {
				continue
			}
			candidates++
			a, b := run.regions[ii], run.regions[jj]
			if tau := stats.PairLRT(a.Positives, a.N, b.Positives, b.N); math.Float64bits(got.Tau) != math.Float64bits(tau) {
				t.Fatalf("%s: pair (%d,%d) Tau = %v, want stats.PairLRT's %v", name, a.Index, b.Index, got.Tau, tau)
			}
		}
	}
	// The reference scores every similarity verdict; the stock Mann–Whitney
	// kernel must have settled some from bounds alone, and every kind must
	// otherwise tally identically.
	if refTally.simBounded != 0 || (run.sim.kind == kindMannWhitney && tally.simBounded == 0) {
		t.Fatalf("%s: bounded similarity verdicts: stock %d, reference %d", name, tally.simBounded, refTally.simBounded)
	}
	if tally.simBounded+tally.simExact != refTally.simExact {
		t.Fatalf("%s: similarity verdicts: %d bounded + %d exact, reference %d",
			name, tally.simBounded, tally.simExact, refTally.simExact)
	}
	tally.simBounded, tally.simExact, refTally.simExact = 0, 0, 0
	if tally != refTally {
		t.Fatalf("%s: tallies diverged\n got  %+v\n want %+v", name, tally, refTally)
	}
	return candidates
}

// TestFastPathPreGatedMatches pins the summary-gate elision: for every pair
// the summary filter admits under a preGated plan, the preGated kernel must
// return exactly what the full kernel returns — the skipped dissimilarity
// and Eta checks are provably pass-through for such pairs because
// summaryReject already evaluated the identical comparisons on the
// identical inputs.
func TestFastPathPreGatedMatches(t *testing.T) {
	for _, fx := range kernelFixtures(t) {
		cfg := DefaultConfig()
		cfg.MinRegionSize = 10
		cfg.MCWorlds = 199

		run := newTestRunner(t, fx.p, cfg)
		if !run.preGated() {
			t.Fatalf("%s: an indexed plan with the z-test gate must be preGated", fx.name)
		}
		checked := 0
		var ungatedTally, preTally, rejectTally pairTally
		var sc scratch
		for ii := range run.regions {
			for jj := ii + 1; jj < len(run.regions); jj++ {
				if run.summaryReject(ii, jj, &rejectTally) {
					continue
				}
				full, fok := run.auditPair(ii, jj, &ungatedTally, &sc, true, false)
				pre, pok := run.auditPair(ii, jj, &preTally, &sc, true, true)
				comparePair(t, fx.name+"/preGated", pre, full, pok, fok)
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: summary filter admitted no pairs; elision untested", fx.name)
		}
		// The skipped checks must have been no-ops on the full kernel too.
		if ungatedTally.dissRejections != 0 || ungatedTally.etaFastPath != 0 {
			t.Fatalf("%s: summary-admitted pairs hit skipped gates: %+v", fx.name, ungatedTally)
		}
	}
}

// TestPairLRTMatchesPairLRT pins the sweep's cached-logarithm pairLRT to
// stats.PairLRT bit for bit over every count pair of small regions —
// so the k = 0 and k = n edges, pooled rates of exactly 0 and 1, and one
// region at an edge while the other is not — and over a few large ones.
func TestPairLRTMatchesPairLRT(t *testing.T) {
	var regs []*partition.Region
	for n := 1; n <= 9; n++ {
		for k := 0; k <= n; k++ {
			regs = append(regs, &partition.Region{N: n, Positives: k})
		}
	}
	for _, r := range [][2]int{{0, 5000}, {5000, 5000}, {1, 5000}, {4999, 5000}, {2500, 5000}, {0, 1 << 20}, {1 << 20, 1 << 20}} {
		regs = append(regs, &partition.Region{Positives: r[0], N: r[1]})
	}
	ar := &auditRunner{regions: regs}
	ar.fillLogLik()
	for ii, a := range regs {
		for jj, b := range regs {
			got := ar.pairLRT(ii, jj, a, b)
			if want := stats.PairLRT(a.Positives, a.N, b.Positives, b.N); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("(k=%d,n=%d) vs (k=%d,n=%d): tau = %v, stats.PairLRT has %v", a.Positives, a.N, b.Positives, b.N, got, want)
			}
		}
	}
}
