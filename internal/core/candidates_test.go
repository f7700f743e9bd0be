package core

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// TestCandidatePlanEnumeratesWindowSets is the unit property of the sliding-
// window join: for random sorted key sets (with duplicates) and random
// windows — Inside, Outside, inverted, and window-less probes — forEachPartner
// must yield exactly the positions j > i whose key the window admits, each
// once, never aborting early when yield keeps returning true.
func TestCandidatePlanEnumeratesWindowSets(t *testing.T) {
	rng := stats.NewRNG(6021)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		keyOf := make([]float64, n)
		for i := range keyOf {
			keyOf[i] = float64(rng.Intn(8)) / 7 // few levels -> many duplicates
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			if keyOf[order[a]] != keyOf[order[b]] {
				return keyOf[order[a]] < keyOf[order[b]]
			}
			return order[a] < order[b]
		})
		pl := &candidatePlan{
			indexed:   true,
			keys:      make([]float64, n),
			pos:       make([]int32, n),
			windows:   make([]PruneWindow, n),
			hasWindow: make([]bool, n),
		}
		for k, p := range order {
			pl.keys[k], pl.pos[k] = keyOf[p], int32(p)
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0: // window-less probe
			case 1:
				pl.windows[i] = excludeBand(PrunePositiveRate, rng.Float64()-0.2, rng.Float64())
				pl.hasWindow[i] = true
			case 2:
				pl.windows[i] = includeInterval(PrunePositiveRate, rng.Float64()-0.2, rng.Float64())
				pl.hasWindow[i] = true
			case 3:
				pl.windows[i] = emptyWindow(PrunePositiveRate)
				pl.hasWindow[i] = true
			}
		}

		for i := 0; i < n; i++ {
			var got []int
			if !pl.forEachPartner(i, n, func(j int) bool { got = append(got, j); return true }) {
				t.Fatal("enumeration aborted without yield returning false")
			}
			want := map[int]bool{}
			for j := i + 1; j < n; j++ {
				if !pl.hasWindow[i] || pl.windows[i].Admits(keyOf[j]) {
					want[j] = true
				}
			}
			seen := map[int]bool{}
			for _, j := range got {
				if j <= i {
					t.Fatalf("trial %d probe %d: yielded j = %d <= i", trial, i, j)
				}
				if seen[j] {
					t.Fatalf("trial %d probe %d: yielded j = %d twice (window %+v)", trial, i, j, pl.windows[i])
				}
				seen[j] = true
				if !want[j] {
					t.Fatalf("trial %d probe %d: yielded inadmissible j = %d", trial, i, j)
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("trial %d probe %d: yielded %d partners, want %d (window %+v)",
					trial, i, len(seen), len(want), pl.windows[i])
			}
			// windowCount must agree with the admitted-key count over ALL
			// positions (it estimates ordered emissions, probe included).
			if pl.hasWindow[i] {
				admitted := 0
				for j := 0; j < n; j++ {
					if pl.windows[i].Admits(keyOf[j]) {
						admitted++
					}
				}
				if c := windowCount(pl.keys, pl.windows[i]); c != admitted {
					t.Fatalf("trial %d probe %d: windowCount = %d, admitted = %d", trial, i, c, admitted)
				}
			}
		}
		// Early abort must propagate false.
		if pl.forEachPartner(0, n, func(int) bool { return false }) {
			calls := 0
			pl.forEachPartner(0, n, func(int) bool { calls++; return true })
			if calls > 0 {
				t.Fatalf("trial %d: abort did not return false despite %d partners", trial, calls)
			}
		}
	}
}

// TestAuditIndexedDenseEquivalence is the headline equivalence claim: forcing
// CandidateDense and CandidateIndexed on the same input and Config yields
// byte-identical results — pairs, counts, ordering — across worker counts
// and both flagging modes.
func TestAuditIndexedDenseEquivalence(t *testing.T) {
	p := manyRegions(t)
	for _, fdr := range []float64{0, 0.10} {
		cfg := DefaultConfig()
		cfg.Alpha = 0.05
		cfg.MCWorlds = 199
		cfg.FDR = fdr

		cfg.CandidateGen = CandidateDense
		cfg.Workers = 1
		dense, err := Audit(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(dense.Pairs) == 0 || dense.Candidates == 0 {
			t.Fatalf("fdr=%v: fixture produced no work", fdr)
		}
		want := auditBytes(t, dense)

		cfg.CandidateGen = CandidateIndexed
		for _, workers := range []int{1, 2, 3, 8} {
			cfg.Workers = workers
			indexed, err := Audit(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := auditBytes(t, indexed); !bytes.Equal(got, want) {
				t.Fatalf("fdr=%v workers=%d: indexed diverged from dense\n got %s\nwant %s",
					fdr, workers, got, want)
			}
			if indexed.Candidates != dense.Candidates || indexed.EligibleRegions != dense.EligibleRegions {
				t.Fatalf("fdr=%v workers=%d: counts diverged: %d/%d candidates, %d/%d eligible",
					fdr, workers, indexed.Candidates, dense.Candidates,
					indexed.EligibleRegions, dense.EligibleRegions)
			}
		}
	}
}

// TestAuditCandidateSupersetQuick is the system-level soundness property:
// across randomized universes, metric pairings, and thresholds, the indexed
// plan's surviving candidate set (window join plus summary bounds) must
// contain every pair the exact gate cascade passes. It also requires real
// pruning to have happened, so the containment is not vacuous.
func TestAuditCandidateSupersetQuick(t *testing.T) {
	rng := stats.NewRNG(40426)
	sims := []PairMetric{MannWhitneySimilarity{}, KolmogorovSmirnovSimilarity{}, WelchTSimilarity{}, MeanGapSimilarity{}}
	disses := []PairMetric{ZScoreDissimilarity{}, StatParityDissimilarity{}, DisparateImpactDissimilarity{}}
	epsFor := func(m PairMetric) float64 {
		if _, ok := m.(MeanGapSimilarity); ok {
			return 0.05 + 0.3*rng.Float64()
		}
		return []float64{0.001, 0.01, 0.05}[rng.Intn(3)]
	}
	deltaFor := func(m PairMetric) float64 {
		switch m.(type) {
		case StatParityDissimilarity:
			return 0.05 + 0.3*rng.Float64()
		case DisparateImpactDissimilarity:
			return 0.3 + 0.5*rng.Float64()
		}
		return []float64{0.001, 0.01, 0.05}[rng.Intn(3)]
	}

	totalPruned, totalPassing := 0, 0
	for trial := 0; trial < 40; trial++ {
		p := randomAuditPartitioning(rng, 4+rng.Intn(8))
		cfg := DefaultConfig()
		cfg.Similarity = sims[trial%len(sims)]
		cfg.Dissimilarity = disses[trial%len(disses)]
		cfg.Epsilon = epsFor(cfg.Similarity)
		cfg.Delta = deltaFor(cfg.Dissimilarity)
		cfg.Eta = []float64{0, 0.05, 0.2}[rng.Intn(3)]
		cfg.MinRegionSize = 1 + rng.Intn(60)
		cfg.CandidateGen = CandidateIndexed

		eligible := p.NonEmpty(cfg.MinRegionSize)
		if len(eligible) < 2 {
			continue
		}
		regions := make([]*partition.Region, len(eligible))
		for i, idx := range eligible {
			regions[i] = &p.Regions[idx]
		}
		run := newAuditRunner(cfg, regions)
		run.buildIndex()
		run.sim.beginPrepare(run.regions)
		run.diss.beginPrepare(run.regions)
		for i := range run.regions {
			run.sim.prepare(i, run.regions[i])
			run.diss.prepare(i, run.regions[i])
		}
		if !run.plan.indexed {
			t.Fatalf("trial %d: plan not indexed despite prunable metrics", trial)
		}

		surviving := map[[2]int]bool{}
		var tally pairTally
		for i := range regions {
			run.plan.forEachPartner(i, len(regions), func(j int) bool {
				if !run.summaryReject(i, j, &tally) {
					surviving[[2]int{i, j}] = true
				}
				return true
			})
		}

		// The exact gate cascade, densely.
		for i := range regions {
			for j := i + 1; j < len(regions); j++ {
				a, b := regions[i], regions[j]
				if !cfg.Dissimilarity.Pass(cfg.Dissimilarity.Score(a, b), cfg.Delta) {
					continue
				}
				if cfg.Eta > 0 && math.Abs(a.PositiveRate()-b.PositiveRate()) <= cfg.Eta {
					continue
				}
				if !cfg.Similarity.Pass(cfg.Similarity.Score(a, b), cfg.Epsilon) {
					continue
				}
				totalPassing++
				if !surviving[[2]int{i, j}] {
					t.Fatalf("trial %d (%s/%s eps=%v delta=%v eta=%v): gate-passing pair (%d,%d) pruned",
						trial, cfg.Similarity.Name(), cfg.Dissimilarity.Name(),
						cfg.Epsilon, cfg.Delta, cfg.Eta, i, j)
				}
			}
		}
		totalPruned += len(regions)*(len(regions)-1)/2 - len(surviving)
	}
	if totalPassing == 0 {
		t.Fatal("no trial produced a gate-passing pair; the superset property was never tested")
	}
	if totalPruned == 0 {
		t.Fatal("no trial pruned a pair; the superset property is vacuous")
	}
}

// TestZGateBoundsEquivalence pins the sweep's fast dissimilarity gate: the
// |z| band compare that summaryReject uses when the metric is ZScore must
// reproduce ZScoreDissimilarity.Bounds bit-for-bit — on random count tuples,
// on degenerate pooled proportions, and at adversarial thresholds chosen to
// equal exactly reachable p-values, where one ULP of slop would flip the
// decision.
func TestZGateBoundsEquivalence(t *testing.T) {
	rng := stats.NewRNG(0x2BA1D)
	deltas := []float64{0, 1e-300, 1e-9, 0.01, 0.05, 0.5, 1, 1.5}
	for i := 0; i < 12; i++ {
		// Thresholds that ARE two-proportion p-values of random count tuples.
		n1, n2 := 1+rng.Intn(400), 1+rng.Intn(400)
		r := stats.TwoProportionZ(rng.Intn(n1+1), n1, rng.Intn(n2+1), n2)
		if !math.IsNaN(r.P) {
			deltas = append(deltas, r.P)
		}
	}
	metric := ZScoreDissimilarity{}
	for _, delta := range deltas {
		gate := stats.NewTwoSidedPGate(delta)
		for trial := 0; trial < 4000; trial++ {
			n1, n2 := rng.Intn(300), rng.Intn(300)
			k1, k2 := 0, 0
			if n1 > 0 {
				k1 = rng.Intn(n1 + 1)
			}
			if n2 > 0 {
				k2 = rng.Intn(n2 + 1)
			}
			if trial%7 == 0 {
				k1, k2 = 0, 0 // force the degenerate pooled-proportion branch
			}
			a := partition.RegionSummary{N: n1, Protected: k1}
			b := partition.RegionSummary{N: n2, Protected: k2}
			fast := gate.LE(stats.TwoProportionZStat(k1, n1, k2, n2))
			if slow := metric.Bounds(&a, &b, delta, nil); fast == slow {
				t.Fatalf("delta=%v k1=%d n1=%d k2=%d n2=%d: gate pass=%v, Bounds canReject=%v (must be opposite)",
					delta, k1, n1, k2, n2, fast, slow)
			}
		}
	}
}
