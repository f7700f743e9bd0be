package core

import (
	"testing"

	"lcsf/internal/partition"
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

// TestFastPathMatchesExact sweeps every pair of each kernel fixture through
// auditPair twice: once with the stock metrics, whose gates decide verdicts
// from |z| bands and bracketed |z| intervals and defer scores, and once with
// the metrics wrapped in unpreparedMetric, which scores every pair through
// the per-pair Score reference. Pairs, verdicts, and tallies must be
// bit-identical. The claim is not "statistically equivalent" but "the same
// decision procedure executed lazily": verdicts replay the exact threshold
// comparisons, deferred scores resolve through kernels bit-identical to
// Score, and the Monte-Carlo null sample is a function of the pair's count
// signature alone — so any divergence, in any field, is a bug.
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
			for _, fx := range fixtures {
				cfg := DefaultConfig()
				cfg.MinRegionSize = 10
				cfg.MCWorlds = 199
				ref := cfg
				ref.Similarity = unpreparedMetric{cfg.Similarity}
				ref.Dissimilarity = unpreparedMetric{cfg.Dissimilarity}

				// Two runners, not one: the null store is stateful, and a
				// shared instance would let the first sweep fill it for the
				// second, skewing the tallies without any kernel divergence.
				run := newTestRunner(t, fx.p, cfg)
				refRun := newTestRunner(t, fx.p, ref)
				if tc.fullStore {
					fillNullStore(t, run.nulls)
					fillNullStore(t, refRun.nulls)
				}
				var tally, refTally pairTally
				var sc, refSc Scratch
				candidates := 0
				for ii := range run.regions {
					for jj := ii + 1; jj < len(run.regions); jj++ {
						got, ok := run.auditPair(ii, jj, &tally, &sc, tc.keepScores, false)
						want, wantOK := refRun.auditPair(ii, jj, &refTally, &refSc, true, false)
						if !tc.keepScores && ok && want.P > cfg.Alpha {
							// The lazy kernel only materializes scores for
							// pairs its caller would append; mirror the
							// engine's filter before comparing score fields.
							want.SimScore, want.DissScore = 0, 0
						}
						comparePair(t, fx.name+"/"+tc.name, got, want, ok, wantOK)
						if ok {
							candidates++
						}
					}
				}
				if candidates == 0 {
					t.Fatalf("%s: fixture produced no candidates; comparisons prove nothing", fx.name)
				}
				// The reference scores every similarity verdict; the stock
				// kernel must have settled some from bounds alone, and
				// otherwise tally identically.
				if refTally.simBounded != 0 || tally.simBounded == 0 {
					t.Fatalf("%s: bounded similarity verdicts: stock %d, reference %d", fx.name, tally.simBounded, refTally.simBounded)
				}
				if tally.simBounded+tally.simExact != refTally.simExact {
					t.Fatalf("%s: similarity verdicts: %d bounded + %d exact, reference %d",
						fx.name, tally.simBounded, tally.simExact, refTally.simExact)
				}
				tally.simBounded, tally.simExact, refTally.simExact = 0, 0, 0
				if tally != refTally {
					t.Fatalf("%s: tallies diverged\n got  %+v\n want %+v", fx.name, tally, refTally)
				}
			}
		})
	}
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
		run.buildIndex()
		if !run.preGated() {
			t.Fatalf("%s: an indexed plan with the z-test gate must be preGated", fx.name)
		}
		checked := 0
		var ungatedTally, preTally, scratch pairTally
		var sc Scratch
		for ii := range run.regions {
			for jj := ii + 1; jj < len(run.regions); jj++ {
				if run.summaryReject(ii, jj, &scratch) {
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
