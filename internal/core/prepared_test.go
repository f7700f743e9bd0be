package core

import (
	"context"
	"math"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// makeCascadeFixture builds a 5-cell partitioning whose pairs exercise every
// exit of the audit's gate cascade with deterministic (non-sampled) counts:
// positives and protected-group membership are assigned by exact quota, so
// each pair's path through the cascade is fixed by construction.
//
//	cell 0: poor, 80% minority, rate 0.40
//	cell 1: poor, 10% minority, rate 0.70
//	cell 2: rich, 10% minority, rate 0.72
//	cell 3: poor, 80% minority, rate 0.70
//	cell 4: poor, 10% minority, rate 0.46
//
// (0,3) and the 10%-vs-10% pairs fail the dissimilarity gate; (1,3) and
// (2,3) exit via the Eta fast path (rate gaps 0 and 0.02); (0,2) fails the
// similarity gate (poor vs rich); (0,1), (0,4) and (3,4) are candidates
// that reach the Monte-Carlo test.
func makeCascadeFixture(t testing.TB) *partition.Partitioning {
	t.Helper()
	return cascadeFixture(false)
}

// makeTiedCascadeFixture is makeCascadeFixture with every income rounded to
// whole thousands and floored at 12,000, the shape of real HMDA incomes:
// ties within and across regions abound, so the Mann–Whitney gate runs its
// tie-aware brackets and kernel.
func makeTiedCascadeFixture(t testing.TB) *partition.Partitioning {
	t.Helper()
	return cascadeFixture(true)
}

func cascadeFixture(tied bool) *partition.Partitioning {
	const perRegion = 200
	rng := stats.NewRNG(77)
	var obs []partition.Observation
	add := func(x float64, rich bool, minorityShare, rate float64) {
		positives := int(math.Round(rate * perRegion))
		minority := int(math.Round(minorityShare * perRegion))
		for i := 0; i < perRegion; i++ {
			income := 45000 + 8000*rng.NormFloat64()
			if rich {
				income = 150000 + 20000*rng.NormFloat64()
			}
			if tied {
				income = math.Max(12000, math.Round(income/1000)*1000)
			}
			obs = append(obs, partition.Observation{
				Loc:       geo.Pt(x, 0.5),
				Positive:  i < positives,
				Protected: i < minority,
				Income:    income,
			})
		}
	}
	add(0.5, false, 0.8, 0.40)
	add(1.5, false, 0.1, 0.70)
	add(2.5, true, 0.1, 0.72)
	add(3.5, false, 0.8, 0.70)
	add(4.5, false, 0.1, 0.46)
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(5, 1)), 5, 1)
	return partition.ByGrid(grid, obs, partition.Options{Seed: 5})
}

// newTestRunner builds an auditRunner over the partitioning's eligible
// regions through AuditContext's setup path: candidate plan, every prepared
// cache, and the log-likelihood cache, with one worker and no collector.
func newTestRunner(t testing.TB, p *partition.Partitioning, cfg Config) *auditRunner {
	t.Helper()
	run, err := newAuditRunner(context.Background(), cfg, p, p.NonEmpty(cfg.MinRegionSize), nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// sweep runs the kernel over every pair, accumulating into tally.
func (ar *auditRunner) sweep(tally *pairTally, sc *scratch) {
	for ii := range ar.regions {
		for jj := ii + 1; jj < len(ar.regions); jj++ {
			ar.auditPair(ii, jj, tally, sc, true, false)
		}
	}
}

// fillNullStore fills s to its bound with cheap keys (n1 = 0 draws nothing),
// so every later lookup of a new key takes the past-bound scratch path.
func fillNullStore(t testing.TB, s *stats.NullStore) {
	t.Helper()
	var ns stats.NullScratch
	for k := 1 << 20; k < 1<<20+1<<16; k++ {
		s.PValue(0, k, 0, 0, &ns)
		if _, _, filled := s.PValue(0, k, 0, 0, &ns); filled {
			return // the store declined to keep k: it is full
		}
	}
	t.Fatal("null store never reached its bound")
}

// TestAuditPairKernelZeroAlloc pins the perf contract of the steady-state
// pair loop: once the precompute phase has built the per-region caches,
// auditPair performs zero heap allocations on every cascade path —
// dissimilarity rejection, Eta fast-path exit, similarity rejection, and
// the null-store p-value, both answered from a stored
// sample and, past the store's bound, from a fill into the worker's scratch.
// It runs on the cascade fixture and on its tied twin, whose similarity gate
// takes the tie-aware brackets and exact bucketed kernel.
func TestAuditPairKernelZeroAlloc(t *testing.T) {
	for _, fx := range kernelFixtures(t) {
		p := fx.p
		cfg := DefaultConfig()
		cfg.MinRegionSize = 10
		cfg.MCWorlds = 199

		run := newTestRunner(t, p, cfg)
		var sc scratch

		// The fixture must actually cover every cascade exit, or the
		// zero-alloc sweep below proves less than it claims.
		var cover pairTally
		run.sweep(&cover, &sc)
		for _, c := range []struct {
			name string
			n    int64
		}{
			{"dissRejections", cover.dissRejections},
			{"etaFastPath", cover.etaFastPath},
			{"simRejections", cover.simRejections},
			{"nullFills", cover.nullFills},
		} {
			if c.n == 0 {
				t.Fatalf("%s fixture does not exercise %s; kernel coverage incomplete", fx.name, c.name)
			}
		}

		fullRun := newTestRunner(t, p, cfg)
		fillNullStore(t, fullRun.nulls)
		var fullSc scratch
		var full pairTally
		fullRun.sweep(&full, &fullSc)
		if full.nullHits != 0 || full.nullFills != cover.nullFills+cover.nullHits {
			t.Fatalf("%s full store: %d hits, %d fills; want every lookup filled into scratch", fx.name, full.nullHits, full.nullFills)
		}

		for _, tc := range []struct {
			name string
			run  *auditRunner
			sc   *scratch
		}{
			{"null-store-hit", run, &sc},
			{"null-store-past-bound", fullRun, &fullSc},
		} {
			allocs := testing.AllocsPerRun(5, func() {
				var tally pairTally
				tc.run.sweep(&tally, tc.sc)
			})
			if allocs != 0 {
				t.Errorf("%s %s: auditPair sweep allocates %.1f times per run, want 0", fx.name, tc.name, allocs)
			}
		}
	}
}

// TestEveryCandidateTakesNullStoreP pins the paper's calibration at a
// permissive cut: at alpha 0.2, which POST /audit accepts, every candidate's
// p-value — its likelihood ratio small or large — is the Monte-Carlo p its
// count signature draws from the null store, never an asymptotic stand-in.
// The cascade fixture's (0,4) candidate has tau below 2, where an asymptotic
// chi-square(1) p would sit near 0.16 and be flagged at this alpha.
func TestEveryCandidateTakesNullStoreP(t *testing.T) {
	for _, fx := range kernelFixtures(t) {
		cfg := DefaultConfig()
		cfg.MinRegionSize = 10
		cfg.MCWorlds = 199
		cfg.Alpha = 0.2
		run := newTestRunner(t, fx.p, cfg)
		ref := stats.NewNullStore(cfg.Seed, cfg.MCWorlds, cfg.nullCut())
		var sc scratch
		var tally pairTally
		var buf stats.NullScratch
		lowTau := 0
		for ii := range run.regions {
			for jj := ii + 1; jj < len(run.regions); jj++ {
				pr, ok := run.auditPair(ii, jj, &tally, &sc, true, false)
				if !ok {
					continue
				}
				a, b := run.regions[ii], run.regions[jj]
				want, _, _ := ref.PValue(a.N, b.N, a.Positives+b.Positives, pr.Tau, &buf)
				if math.Float64bits(pr.P) != math.Float64bits(want) {
					t.Errorf("%s pair (%d,%d) tau %v: p = %v, want the null store's %v", fx.name, a.Index, b.Index, pr.Tau, pr.P, want)
				}
				if pr.Tau <= 2 {
					lowTau++
				}
			}
		}
		if lowTau == 0 {
			t.Errorf("%s fixture has no candidate with tau <= 2; the check proves less than it claims", fx.name)
		}
	}
}

// TestAuditPairMatchesUnpreparedMetrics asserts the SoA scoring path is
// bit-identical to the per-pair Score fallback: auditing with the stock
// metrics and with wrappers that hide their concrete types produces
// identical results.
func TestAuditPairMatchesUnpreparedMetrics(t *testing.T) {
	p := makeCascadeFixture(t)
	cfg := DefaultConfig()
	cfg.MinRegionSize = 10
	cfg.MCWorlds = 199

	want, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	plain := cfg
	plain.Similarity = unpreparedMetric{cfg.Similarity}
	plain.Dissimilarity = unpreparedMetric{cfg.Dissimilarity}
	got, err := Audit(p, plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != len(want.Pairs) || got.Candidates != want.Candidates {
		t.Fatalf("prepared vs fallback shape diverged: %d/%d pairs, %d/%d candidates",
			len(got.Pairs), len(want.Pairs), got.Candidates, want.Candidates)
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("pair %d diverged:\nprepared %+v\nfallback %+v", i, want.Pairs[i], got.Pairs[i])
		}
	}
}

// unpreparedMetric hides a built-in metric's concrete type, so metricKindOf
// finds no SoA kind and the audit scores every pair through Score. The bench
// harness uses the same shape for its prepared-vs-fallback ablation.
type unpreparedMetric struct{ PairMetric }

// TestAuditCancellationMidSweep cancels an audit from within the pair sweep —
// via a dissimilarity metric that trips the cancel after a fixed number of
// scores — and checks (a) the audit aborts with the context's error and (b)
// the worker's every-cancelCheckInterval poll stopped the sweep well short of
// the full pair count, rather than the cancellation only being noticed at the
// post-sweep barrier.
func TestAuditCancellationMidSweep(t *testing.T) {
	// 40 one-cell columns of 20 individuals each: 780 pairs, far more than
	// one cancelCheckInterval, so an in-loop poll is observable.
	const cells, perCell = 40, 20
	rng := stats.NewRNG(123)
	var observations []partition.Observation
	for c := 0; c < cells; c++ {
		for i := 0; i < perCell; i++ {
			observations = append(observations, partition.Observation{
				Loc:       geo.Pt(float64(c)+0.5, 0.5),
				Positive:  i%2 == 0,
				Protected: (c%2 == 0) == (i < perCell/4*3),
				Income:    50000 + 9000*rng.NormFloat64(),
			})
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(cells, 1)), cells, 1)
	p := partition.ByGrid(grid, observations, partition.Options{Seed: 5})

	cfg := DefaultConfig()
	cfg.MinRegionSize = 10
	cfg.Workers = 1
	// Force the dense plan: every cell here has the same positive rate, so
	// an Eta-windowed plan would (correctly) emit no candidates and the
	// wrapped metric would never be consulted. The indexed path's in-loop
	// poll is covered by TestAuditCancellationMidSweepIndexed.
	cfg.CandidateGen = CandidateDense

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	diss := &cancelAfter{PairMetric: cfg.Dissimilarity, cancel: cancel, after: 3}
	cfg.Dissimilarity = diss

	if _, err := AuditContext(ctx, p, cfg); err != context.Canceled {
		t.Fatalf("mid-sweep cancellation returned %v, want context.Canceled", err)
	}
	totalPairs := cells * (cells - 1) / 2
	if diss.scored >= totalPairs {
		t.Fatalf("worker scored all %d pairs after cancellation; in-loop poll never fired", totalPairs)
	}
	if diss.scored > 2*cancelCheckInterval {
		t.Errorf("worker scored %d pairs after cancellation, want <= %d (one poll interval plus slack)",
			diss.scored, 2*cancelCheckInterval)
	}
}

// TestAuditCancellationMidSweepIndexed is the indexed counterpart of the
// mid-sweep cancellation test: the window join must run the same
// every-cancelCheckInterval poll as the dense sweep, counted per emitted
// candidate. The fixture alternates rates and shares so the windows emit far
// more than one poll interval of candidates, all of which reach the
// similarity metric (where the wrapped cancel fires).
func TestAuditCancellationMidSweepIndexed(t *testing.T) {
	const cells, perCell = 50, 20
	rng := stats.NewRNG(321)
	var observations []partition.Observation
	for c := 0; c < cells; c++ {
		rate, share := 0.25, 0.1
		if c%2 == 0 {
			rate, share = 0.75, 0.8
		}
		for i := 0; i < perCell; i++ {
			observations = append(observations, partition.Observation{
				Loc:       geo.Pt(float64(c)+0.5, 0.5),
				Positive:  rng.Bernoulli(rate),
				Protected: rng.Bernoulli(share),
				Income:    50000 + 9000*rng.NormFloat64(),
			})
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(cells, 1)), cells, 1)
	p := partition.ByGrid(grid, observations, partition.Options{Seed: 5})

	cfg := DefaultConfig()
	cfg.MinRegionSize = 10
	cfg.Workers = 1
	cfg.CandidateGen = CandidateIndexed // dissimilarity gate is prunable, so this holds

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim := &cancelAfter{PairMetric: cfg.Similarity, cancel: cancel, after: 3}
	cfg.Similarity = sim

	if _, err := AuditContext(ctx, p, cfg); err != context.Canceled {
		t.Fatalf("mid-sweep cancellation returned %v, want context.Canceled", err)
	}
	// Opposite-parity pairs dominate the window emissions: ~cells^2/4 of them,
	// far beyond one poll interval, and each reaches the similarity metric.
	if sim.scored > 2*cancelCheckInterval {
		t.Errorf("worker scored %d pairs after cancellation, want <= %d (one poll interval plus slack)",
			sim.scored, 2*cancelCheckInterval)
	}
}

// cancelAfter is a PairMetric wrapper that cancels a context after its score
// has been consulted a fixed number of times, counting every call. Hiding the
// built-in metric's concrete type keeps the scoring on the per-pair Score
// path, so Score observes every pair.
type cancelAfter struct {
	PairMetric
	cancel context.CancelFunc
	after  int
	scored int
}

func (c *cancelAfter) Score(a, b *partition.Region) float64 {
	c.scored++
	if c.scored == c.after {
		c.cancel()
	}
	return c.PairMetric.Score(a, b)
}
