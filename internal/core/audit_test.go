package core

import (
	"sync"
	"testing"
	"time"

	"lcsf/internal/geo"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
	"lcsf/internal/testutil"
)

func TestAuditFlagsPlantedPair(t *testing.T) {
	p := makeRegions(t, 500)
	cfg := DefaultConfig()
	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EligibleRegions != 3 {
		t.Fatalf("eligible = %d", res.EligibleRegions)
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("unfair pairs = %d, want exactly the planted one: %+v", len(res.Pairs), res.Pairs)
	}
	pr := res.Pairs[0]
	if pr.I != 0 || pr.J != 1 {
		t.Errorf("pair = (%d,%d), want (0,1)", pr.I, pr.J)
	}
	if pr.RateI >= pr.RateJ {
		t.Errorf("pair should be oriented disadvantaged-first: %v vs %v", pr.RateI, pr.RateJ)
	}
	if pr.SharedI <= pr.SharedJ {
		t.Errorf("disadvantaged region should be the minority one: %v vs %v", pr.SharedI, pr.SharedJ)
	}
	if pr.P > cfg.Alpha || pr.Tau <= 0 {
		t.Errorf("pair stats: tau=%v p=%v", pr.Tau, pr.P)
	}
}

func TestAuditFairDataFindsLittle(t *testing.T) {
	// Same composition structure but no outcome gap: nothing should be
	// significant (beyond rare Monte-Carlo flukes).
	rng := stats.NewRNG(7)
	var obs []partition.Observation
	for cell := 0; cell < 10; cell++ {
		minorityP := 0.1
		if cell%2 == 0 {
			minorityP = 0.8
		}
		for i := 0; i < 300; i++ {
			obs = append(obs, partition.Observation{
				Loc:       geo.Pt(float64(cell)+0.5, 0.5),
				Positive:  rng.Bernoulli(0.62),
				Protected: rng.Bernoulli(minorityP),
				Income:    50000 + 9000*rng.NormFloat64(),
			})
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(10, 1)), 10, 1)
	p := partition.ByGrid(grid, obs, partition.Options{Seed: 3})
	res, err := Audit(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 25 candidate pairs (every odd-even combination), alpha=0.05: expect
	// ~1 false positive; allow up to 4.
	if len(res.Pairs) > 4 {
		t.Errorf("fair data produced %d unfair pairs of %d candidates", len(res.Pairs), res.Candidates)
	}
	if res.Candidates == 0 {
		t.Error("gates rejected everything; expected odd-even candidates")
	}
}

func TestAuditDeterministicAcrossWorkers(t *testing.T) {
	p := makeRegions(t, 300)
	cfg := DefaultConfig()
	results := make([]*Result, 0, 4)
	for _, w := range []int{1, 2, 3, 8} {
		cfg.Workers = w
		res, err := Audit(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i].Pairs) != len(results[0].Pairs) {
			t.Fatalf("worker counts changed result size")
		}
		for j := range results[0].Pairs {
			if results[i].Pairs[j] != results[0].Pairs[j] {
				t.Fatalf("worker counts changed pair %d: %+v vs %+v",
					j, results[0].Pairs[j], results[i].Pairs[j])
			}
		}
	}
}

func TestAuditEtaFastPath(t *testing.T) {
	p := makeRegions(t, 500)
	cfg := DefaultConfig()
	cfg.Eta = 0.9 // any rate gap below 90% counts as similar outcomes
	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 || res.Candidates != 0 {
		t.Errorf("eta=0.9 should suppress all candidates, got %d pairs %d candidates",
			len(res.Pairs), res.Candidates)
	}
}

func TestAuditMinRegionSize(t *testing.T) {
	p := makeRegions(t, 30)
	cfg := DefaultConfig()
	cfg.MinRegionSize = 100
	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EligibleRegions != 0 || len(res.Pairs) != 0 {
		t.Errorf("min size should exclude all regions: %+v", res)
	}
}

func TestAuditConfigValidation(t *testing.T) {
	p := makeRegions(t, 50)
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.Alpha = 0; return c }(),
		func() Config { c := DefaultConfig(); c.Alpha = 1; return c }(),
		func() Config { c := DefaultConfig(); c.MCWorlds = 0; return c }(),
		func() Config { c := DefaultConfig(); c.MinRegionSize = 0; return c }(),
		func() Config { c := DefaultConfig(); c.Similarity = nil; return c }(),
		func() Config { c := DefaultConfig(); c.CandidateGen = CandidateGen(99); return c }(),
		func() Config {
			// CandidateIndexed with no window or bound provider: both metrics
			// wrapped to hide PrunableMetric and the Eta fast path disabled.
			c := DefaultConfig()
			c.Similarity = unpreparedMetric{c.Similarity}
			c.Dissimilarity = unpreparedMetric{c.Dissimilarity}
			c.Eta = 0
			c.CandidateGen = CandidateIndexed
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := Audit(p, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{Pairs: []UnfairPair{
		{I: 3, J: 7, Tau: 10},
		{I: 3, J: 9, Tau: 8},
		{I: 1, J: 2, Tau: 5},
	}}
	set := res.UnfairRegionSet()
	for _, want := range []int{1, 2, 3, 7, 9} {
		if !set[want] {
			t.Errorf("region %d missing from set", want)
		}
	}
	if len(set) != 5 {
		t.Errorf("set size = %d", len(set))
	}
	if top := res.Top(2); len(top) != 2 {
		t.Errorf("Top(2) = %+v", top)
	} else {
		testutil.InDelta(t, "Top(2)[0].Tau", top[0].Tau, 10, 0)
	}
	if top := res.Top(99); len(top) != 3 {
		t.Errorf("Top(99) = %d pairs", len(top))
	}
}

func TestAuditPairsSortedByTau(t *testing.T) {
	// Two planted unfair pairs of different strengths.
	rng := stats.NewRNG(13)
	var obs []partition.Observation
	add := func(x float64, minorityP, approveP float64) {
		for i := 0; i < 500; i++ {
			obs = append(obs, partition.Observation{
				Loc:       geo.Pt(x, 0.5),
				Positive:  rng.Bernoulli(approveP),
				Protected: rng.Bernoulli(minorityP),
				Income:    50000 + 8000*rng.NormFloat64(),
			})
		}
	}
	add(0.5, 0.8, 0.20) // extreme disadvantage
	add(1.5, 0.1, 0.75)
	add(2.5, 0.8, 0.55) // milder disadvantage
	add(3.5, 0.1, 0.72)
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(4, 1)), 4, 1)
	p := partition.ByGrid(grid, obs, partition.Options{Seed: 2})
	res, err := Audit(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) < 2 {
		t.Fatalf("expected at least 2 unfair pairs, got %d", len(res.Pairs))
	}
	for i := 1; i < len(res.Pairs); i++ {
		if res.Pairs[i].Tau > res.Pairs[i-1].Tau {
			t.Errorf("pairs not sorted by tau: %v after %v", res.Pairs[i].Tau, res.Pairs[i-1].Tau)
		}
	}
	// The most unfair pair must involve the extreme region (cell 0).
	if res.Pairs[0].I != 0 {
		t.Errorf("most unfair pair = (%d,%d), want region 0 first", res.Pairs[0].I, res.Pairs[0].J)
	}
}

func TestEthicalConfig(t *testing.T) {
	c := EthicalConfig()
	testutil.InDelta(t, "ethical Epsilon", c.Epsilon, 0.01, 0)
	testutil.InDelta(t, "ethical Delta", c.Delta, 0.01, 0)
}

// TestAuditInjectableClock audits under a fake clock and checks (a) no
// wall-clock reads leak into the timing metrics — the recorded durations are
// exactly what the fake clock dictates — and (b) the audit result is
// byte-identical to a wall-clock run, i.e. the clock is observational only.
func TestAuditInjectableClock(t *testing.T) {
	p := makeRegions(t, 400)
	cfg := DefaultConfig()
	cfg.MinRegionSize = 10
	cfg.MCWorlds = 99

	// Config.Clock is called from worker goroutines (shard timings), so the
	// fake clock must be concurrency-safe like the time.Now it replaces.
	var mu sync.Mutex
	var ticks int
	fakeNow := time.Unix(1700000000, 0)
	cfg.Clock = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		ticks++
		fakeNow = fakeNow.Add(time.Second)
		return fakeNow
	}
	col := newTestCollector()
	cfg.Collector = col
	res, err := Audit(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("injected clock was never consulted")
	}
	s := col.Snapshot()
	h, ok := s.Histograms[obs.MAuditSeconds]
	if !ok || h.Count != 1 {
		t.Fatalf("audit.seconds histogram = %+v", h)
	}
	if h.Sum <= 0 || h.Sum > float64(ticks) {
		t.Errorf("audit.seconds sum %v outside fake-clock bounds (0, %d]", h.Sum, ticks)
	}

	wall := DefaultConfig()
	wall.MinRegionSize = 10
	wall.MCWorlds = 99
	wallRes, err := Audit(p, wall)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(wallRes.Pairs) {
		t.Fatalf("clock changed the result: %d vs %d pairs", len(res.Pairs), len(wallRes.Pairs))
	}
	for i := range res.Pairs {
		if res.Pairs[i] != wallRes.Pairs[i] {
			t.Errorf("pair %d differs under fake clock: %+v vs %+v", i, res.Pairs[i], wallRes.Pairs[i])
		}
	}
}

// TestResultTopClamps pins Top's bounds: a k past the pair count returns
// every pair, and a negative k returns none instead of panicking.
func TestResultTopClamps(t *testing.T) {
	r := &Result{Pairs: make([]UnfairPair, 3)}
	for _, c := range []struct{ k, want int }{{-1, 0}, {0, 0}, {2, 2}, {3, 3}, {10, 3}} {
		if got := len(r.Top(c.k)); got != c.want {
			t.Errorf("Top(%d) returned %d pairs, want %d", c.k, got, c.want)
		}
	}
	if got := (&Result{}).Top(-1); len(got) != 0 {
		t.Errorf("empty result Top(-1) returned %d pairs", len(got))
	}
}
