package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// deltaUniverse is a mutable test world: the grid, the delta partitioning
// under audit, and the mirror of live observations a cold rebuild consumes.
type deltaUniverse struct {
	grid geo.Grid
	opts partition.Options
	dp   *partition.DeltaPartitioning
	live []partition.Observation
}

// newDeltaUniverse builds a randomized universe in the shape of
// randomAuditPartitioning: per-cell share/rate/income levels chosen so gates
// reject, fast-path, and pass across pairs.
func newDeltaUniverse(rng *stats.RNG, cells int, opts partition.Options) *deltaUniverse {
	shareLevels := []float64{0.1, 0.12, 0.5, 0.85}
	incomeBase := []float64{50_000, 52_000, 250_000}
	var data []partition.Observation
	for c := 0; c < cells; c++ {
		n := int(rng.Float64() * 250)
		if rng.Float64() < 0.1 {
			n = 0
		}
		rate := 0.05 + 0.9*rng.Float64()
		share := shareLevels[rng.Intn(len(shareLevels))]
		base := incomeBase[rng.Intn(len(incomeBase))]
		for i := 0; i < n; i++ {
			data = append(data, randomCellObs(rng, c, rate, share, base))
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(float64(cells), 1)), cells, 1)
	u := &deltaUniverse{grid: grid, opts: opts, live: data}
	u.dp = partition.NewDeltaByGrid(grid, data, opts)
	return u
}

func randomCellObs(rng *stats.RNG, cell int, rate, share, base float64) partition.Observation {
	return partition.Observation{
		Loc:       geo.Pt(float64(cell)+0.05+0.9*rng.Float64(), 0.5),
		Positive:  rng.Bernoulli(rate),
		Protected: rng.Bernoulli(share),
		Income:    base + 400*rng.Float64(),
	}
}

// mutate applies nOps random updates (inserts into random cells, deletes of
// random live observations) to both the delta partitioning and the mirror.
func (u *deltaUniverse) mutate(t *testing.T, rng *stats.RNG, nOps int) {
	t.Helper()
	cells := u.grid.NumCells()
	for op := 0; op < nOps; op++ {
		if len(u.live) > 0 && rng.Bernoulli(0.4) {
			k := rng.Intn(len(u.live))
			if _, err := u.dp.Delete(u.live[k]); err != nil {
				t.Fatalf("delete: %v", err)
			}
			u.live[k] = u.live[len(u.live)-1]
			u.live = u.live[:len(u.live)-1]
		} else {
			o := randomCellObs(rng, rng.Intn(cells), 0.05+0.9*rng.Float64(), rng.Float64(), 50_000+10_000*rng.Float64())
			u.dp.Insert(o)
			u.live = append(u.live, o)
		}
	}
}

// mutateCell is mutate restricted to one cell, for fixtures that must keep
// the dirty set small relative to the eligible roster.
func (u *deltaUniverse) mutateCell(t *testing.T, rng *stats.RNG, cell, nOps int) {
	t.Helper()
	inCell := func(o partition.Observation) bool {
		return o.Loc.X >= float64(cell) && o.Loc.X < float64(cell+1)
	}
	for op := 0; op < nOps; op++ {
		k := -1
		if rng.Bernoulli(0.4) {
			for i, o := range u.live {
				if inCell(o) {
					k = i
					break
				}
			}
		}
		if k >= 0 {
			if _, err := u.dp.Delete(u.live[k]); err != nil {
				t.Fatalf("delete: %v", err)
			}
			u.live[k] = u.live[len(u.live)-1]
			u.live = u.live[:len(u.live)-1]
		} else {
			o := randomCellObs(rng, cell, 0.05+0.9*rng.Float64(), rng.Float64(), 50_000+10_000*rng.Float64())
			u.dp.Insert(o)
			u.live = append(u.live, o)
		}
	}
}

// sparsestCell returns the cell with the fewest live entries (ties to the
// lowest index), for fixtures that need a region near the eligibility floor.
func (u *deltaUniverse) sparsestCell() (cell, n int) {
	counts := make([]int, u.grid.NumCells())
	for _, o := range u.live {
		if c, ok := u.grid.CellIndex(o.Loc); ok {
			counts[c]++
		}
	}
	n = -1
	for c, k := range counts {
		if n < 0 || k < n {
			cell, n = c, k
		}
	}
	return cell, n
}

// coldResult audits a cold rebuild of the universe's current mirror — the
// reference every delta result must match byte-for-byte.
func (u *deltaUniverse) coldResult(t *testing.T, cfg Config) *Result {
	t.Helper()
	cold := partition.NewDeltaByGrid(u.grid, u.live, u.opts)
	res, err := Audit(cold.Snapshot(), cfg)
	if err != nil {
		t.Fatalf("cold audit: %v", err)
	}
	return res
}

// requireSameResult asserts byte-identity of two audit results: candidate and
// eligibility counts, the global rate, and every flagged pair field-for-field
// (UnfairPair is comparable, so == is bitwise on its float fields).
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Candidates != want.Candidates || got.EligibleRegions != want.EligibleRegions {
		t.Fatalf("%s: counts differ: candidates %d/%d, eligible %d/%d",
			label, got.Candidates, want.Candidates, got.EligibleRegions, want.EligibleRegions)
	}
	if got.GlobalRate != want.GlobalRate { //lint:floateq-ok byte-identity-assertion
		t.Fatalf("%s: global rate differs: %v vs %v", label, got.GlobalRate, want.GlobalRate)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: flagged %d pairs, want %d\n got: %+v\nwant: %+v",
			label, len(got.Pairs), len(want.Pairs), got.Pairs, want.Pairs)
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d differs:\n got %+v\nwant %+v", label, i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// requireFunnel asserts the DeltaStats internal invariants that hold on every
// incremental pass.
func requireFunnel(t *testing.T, label string, res *Result, st DeltaStats) {
	t.Helper()
	if st.FullSweep {
		if st.ReusedPairs != 0 || st.RescoredCandidates != res.Candidates {
			t.Fatalf("%s: full-sweep stats inconsistent: %+v vs %d candidates", label, st, res.Candidates)
		}
		return
	}
	if res.Candidates != st.ReusedPairs+st.RescoredCandidates {
		t.Fatalf("%s: candidates %d != reused %d + rescored candidates %d",
			label, res.Candidates, st.ReusedPairs, st.RescoredCandidates)
	}
	if st.RescoredPairs != st.WindowCandidates-st.BoundsRejections {
		t.Fatalf("%s: rescored %d != window %d - bounds %d",
			label, st.RescoredPairs, st.WindowCandidates, st.BoundsRejections)
	}
}

// TestDeltaAuditorMatchesBatchQuick is the delta engine's core contract,
// property-tested: across randomized universes, engine configurations, and
// update batches, every delta audit is byte-identical to a cold batch audit
// of the same snapshot. Both the incremental path (fallback disabled) and
// the dirty-fraction fallback are exercised.
func TestDeltaAuditorMatchesBatchQuick(t *testing.T) {
	rng := stats.NewRNG(60112)
	gens := []CandidateGen{CandidateAuto, CandidateDense, CandidateIndexed}
	sawIncremental := false
	for trial := 0; trial < 10; trial++ {
		cfg := DefaultConfig()
		cfg.Alpha = 0.05
		cfg.MCWorlds = 199
		cfg.MinRegionSize = 40
		cfg.Seed = uint64(trial + 1)
		cfg.CandidateGen = gens[trial%len(gens)]
		cfg.Workers = []int{1, 4}[trial%2]
		if trial%3 == 0 {
			cfg.FDR = 0.1
		}
		if trial%2 == 0 {
			cfg.DeltaDirtyFallback = 1 // force the incremental path
		}

		u := newDeltaUniverse(rng, 6+rng.Intn(7), partition.Options{Seed: rng.Uint64(), IncomeSampleCap: 64})
		da, err := NewDeltaAuditor(u.dp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 3; batch++ {
			if batch > 0 {
				u.mutate(t, rng, 10+rng.Intn(40))
			}
			res, st, err := da.Audit(context.Background())
			if err != nil {
				t.Fatalf("trial %d batch %d: delta audit: %v", trial, batch, err)
			}
			if batch == 0 && !st.FullSweep {
				t.Fatalf("trial %d: first audit was not a full sweep", trial)
			}
			if batch > 0 && !st.FullSweep {
				sawIncremental = true
			}
			requireFunnel(t, "quick", res, st)
			requireSameResult(t, "delta vs cold", res, u.coldResult(t, cfg))
		}
	}
	if !sawIncremental {
		t.Fatal("no trial exercised the incremental path; the property is vacuous")
	}
}

// pairFingerprint is the exact per-pair score vector: if any component moves
// between snapshots, the pair's audit outcome may move with it.
type pairFingerprint struct {
	diss, sim, tau uint64 // math.Float64bits, so NaN compares stably
}

func fingerprints(cfg *Config, p *partition.Partitioning) map[[2]int]pairFingerprint {
	out := make(map[[2]int]pairFingerprint)
	for i := range p.Regions {
		for j := i + 1; j < len(p.Regions); j++ {
			a, b := &p.Regions[i], &p.Regions[j]
			out[[2]int{i, j}] = pairFingerprint{
				diss: math.Float64bits(cfg.Dissimilarity.Score(a, b)),
				sim:  math.Float64bits(cfg.Similarity.Score(a, b)),
				tau:  math.Float64bits(stats.PairLRT(a.Positives, a.N, b.Positives, b.N)),
			}
		}
	}
	return out
}

// TestDeltaInvalidationSupersetQuick is the invalidation-soundness property,
// brute-forced in the spirit of TestAuditCandidateSupersetQuick: every pair
// whose exact score vector (gate scores, likelihood-ratio statistic) changes
// between two snapshots must have an endpoint in the dirty set the delta
// engine derives its invalidation from. It also requires changed pairs to
// have occurred, so the containment is not vacuous.
func TestDeltaInvalidationSupersetQuick(t *testing.T) {
	rng := stats.NewRNG(71509)
	cfg := DefaultConfig()
	changed := 0
	for trial := 0; trial < 25; trial++ {
		u := newDeltaUniverse(rng, 4+rng.Intn(8), partition.Options{Seed: rng.Uint64(), IncomeSampleCap: 32})
		before := fingerprints(&cfg, u.dp.Snapshot())
		u.dp.ClearDirty()
		u.mutate(t, rng, 1+rng.Intn(25))
		dirty := map[int]bool{}
		for _, idx := range u.dp.Dirty() {
			dirty[idx] = true
		}
		after := fingerprints(&cfg, u.dp.Snapshot())
		for key, fpB := range after {
			if fpA := before[key]; fpA != fpB {
				changed++
				if !dirty[key[0]] && !dirty[key[1]] {
					t.Fatalf("trial %d: pair %v changed scores without a dirty endpoint (dirty=%v)",
						trial, key, u.dp.Dirty())
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("no pair changed scores across any trial; the property is vacuous")
	}
}

// TestDeltaAuditorFallback pins the dirty-fraction fallback policy: with a
// tiny threshold, any real update batch triggers a full sweep — and the
// result still matches the cold batch audit.
func TestDeltaAuditorFallback(t *testing.T) {
	rng := stats.NewRNG(8055)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	cfg.MinRegionSize = 40
	cfg.DeltaDirtyFallback = 0.001
	u := newDeltaUniverse(rng, 10, partition.Options{Seed: 5, IncomeSampleCap: 64})
	da, err := NewDeltaAuditor(u.dp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := da.Audit(context.Background()); err != nil {
		t.Fatal(err)
	}
	u.mutate(t, rng, 30)
	res, st, err := da.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullSweep {
		t.Fatalf("expected full-sweep fallback at threshold %v with %d dirty regions",
			cfg.DeltaDirtyFallback, st.DirtyRegions)
	}
	requireSameResult(t, "fallback vs cold", res, u.coldResult(t, cfg))
}

// TestDeltaAuditorEligibilityChurn drives a region across MinRegionSize in
// both directions; the delta result must track the cold audit through both
// roster changes.
func TestDeltaAuditorEligibilityChurn(t *testing.T) {
	rng := stats.NewRNG(9120)
	u := newDeltaUniverse(rng, 8, partition.Options{Seed: 77, IncomeSampleCap: 64})
	newCell, minN := u.sparsestCell()
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	cfg.MinRegionSize = minN + 20 // the sparsest cell sits below the floor
	cfg.DeltaDirtyFallback = 1
	da, err := NewDeltaAuditor(u.dp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := da.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseEligible := res.EligibleRegions
	if baseEligible < 2 {
		t.Fatalf("fixture too sparse: %d eligible regions", baseEligible)
	}

	// Grow the sub-floor region past the floor.
	var added []partition.Observation
	for i := 0; i < 40; i++ {
		o := randomCellObs(rng, newCell, 0.3, 0.8, 51_000)
		added = append(added, o)
		u.dp.Insert(o)
		u.live = append(u.live, o)
	}
	res, st, err := da.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.FullSweep {
		t.Fatal("eligibility growth forced a full sweep; expected incremental handling")
	}
	if res.EligibleRegions <= baseEligible {
		t.Fatalf("eligible regions did not grow (%d -> %d); fixture broken", baseEligible, res.EligibleRegions)
	}
	requireSameResult(t, "after growth", res, u.coldResult(t, cfg))

	// Shrink it back below the floor.
	for _, o := range added {
		if _, err := u.dp.Delete(o); err != nil {
			t.Fatal(err)
		}
	}
	u.live = u.live[:len(u.live)-len(added)]
	res, _, err = da.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.EligibleRegions != baseEligible {
		t.Fatalf("eligible regions = %d after shrink, want %d", res.EligibleRegions, baseEligible)
	}
	requireSameResult(t, "after shrink", res, u.coldResult(t, cfg))
}

// lateCancel is a context whose Err reports nil for its first calls and
// context.Canceled from then on, so a test can cancel partway into a pass
// without racing it.
type lateCancel struct {
	context.Context
	live atomic.Int64 // Err calls still to answer nil
}

func (c *lateCancel) Err() error {
	if c.live.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

// TestDeltaRebuildStopsOnCancel cancels a delta pass inside its
// eligible-roster rebuild — after the pass's own up-front check — and
// requires the context error, then a retry that rebuilds from the untouched
// state and matches the cold audit.
func TestDeltaRebuildStopsOnCancel(t *testing.T) {
	rng := stats.NewRNG(9120)
	u := newDeltaUniverse(rng, 8, partition.Options{Seed: 77, IncomeSampleCap: 64})
	newCell, minN := u.sparsestCell()
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	cfg.MinRegionSize = minN + 20 // the sparsest cell sits below the floor
	cfg.DeltaDirtyFallback = 1
	da, err := NewDeltaAuditor(u.dp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := da.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		o := randomCellObs(rng, newCell, 0.3, 0.8, 51_000)
		u.dp.Insert(o)
		u.live = append(u.live, o)
	}

	ctx := &lateCancel{Context: context.Background()}
	ctx.live.Store(1)
	if _, _, err := da.Audit(ctx); err != context.Canceled {
		t.Fatalf("audit canceled in the rebuild returned %v, want context.Canceled", err)
	}
	res, st, err := da.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.FullSweep || res.EligibleRegions <= base.EligibleRegions {
		t.Fatalf("retry: full sweep %v, eligible %d -> %d; want an incremental roster rebuild",
			st.FullSweep, base.EligibleRegions, res.EligibleRegions)
	}
	requireSameResult(t, "retry vs cold", res, u.coldResult(t, cfg))
}

// TestDeltaAuditorCancel: a canceled audit returns the context error, leaves
// the dirty set pending, and a retry produces the exact batch-equivalent
// result.
func TestDeltaAuditorCancel(t *testing.T) {
	rng := stats.NewRNG(3371)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	cfg.MinRegionSize = 40
	cfg.DeltaDirtyFallback = 1
	u := newDeltaUniverse(rng, 8, partition.Options{Seed: 13, IncomeSampleCap: 64})
	da, err := NewDeltaAuditor(u.dp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := da.Audit(canceled); err == nil {
		t.Fatal("first audit with canceled context succeeded")
	}
	if _, _, err := da.Audit(context.Background()); err != nil {
		t.Fatal(err)
	}

	u.mutateCell(t, rng, 1, 12)
	u.mutateCell(t, rng, 6, 8)
	if _, _, err := da.Audit(canceled); err == nil {
		t.Fatal("delta audit with canceled context succeeded")
	}
	res, st, err := da.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.FullSweep {
		t.Fatal("retry fell back to a full sweep; dirty set should have been retained for an incremental pass")
	}
	if st.DirtyRegions == 0 {
		t.Fatal("retry observed no dirty regions; cancellation lost the pending work")
	}
	requireSameResult(t, "retry vs cold", res, u.coldResult(t, cfg))
}

// TestDeltaAuditorFunnelCounters checks the audit.delta.* observability
// funnel: counters accumulate exactly the DeltaStats of each pass, and the
// per-pass invariants (candidates = reused + rescored candidates, rescored =
// window - bounds) hold through the collector too.
func TestDeltaAuditorFunnelCounters(t *testing.T) {
	rng := stats.NewRNG(41888)
	cfg := DefaultConfig()
	cfg.Alpha = 0.05
	cfg.MCWorlds = 199
	cfg.MinRegionSize = 40
	cfg.DeltaDirtyFallback = 1
	col := newTestCollector()
	cfg.Collector = col

	u := newDeltaUniverse(rng, 10, partition.Options{Seed: 23, IncomeSampleCap: 64})
	da, err := NewDeltaAuditor(u.dp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var want DeltaStats
	runs := 0
	fullSweeps := 0
	for batch := 0; batch < 4; batch++ {
		if batch > 0 {
			// Touch only two cells so the dirty fraction stays below the
			// fallback and every follow-up pass runs incrementally.
			u.mutateCell(t, rng, 2, 8)
			u.mutateCell(t, rng, 5, 7)
		}
		res, st, err := da.Audit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		requireFunnel(t, "funnel", res, st)
		runs++
		if st.FullSweep {
			fullSweeps++
		}
		want.DirtyRegions += st.DirtyRegions
		want.InvalidatedPairs += st.InvalidatedPairs
		want.ReusedPairs += st.ReusedPairs
		want.RescoredPairs += st.RescoredPairs
		want.RescoredCandidates += st.RescoredCandidates
	}

	s := col.Snapshot()
	if got := s.Counter(obs.MAuditDeltaRuns); got != int64(runs) {
		t.Errorf("delta runs = %d, want %d", got, runs)
	}
	if got := s.Counter(obs.MAuditDeltaFullSweeps); got != int64(fullSweeps) {
		t.Errorf("full sweeps = %d, want %d", got, fullSweeps)
	}
	if fullSweeps != 1 {
		t.Errorf("fixture ran %d full sweeps, want exactly the seeding sweep", fullSweeps)
	}
	checks := []struct {
		name string
		want int
	}{
		{obs.MAuditDeltaDirtyRegions, want.DirtyRegions},
		{obs.MAuditDeltaInvalidated, want.InvalidatedPairs},
		{obs.MAuditDeltaReused, want.ReusedPairs},
		{obs.MAuditDeltaRescored, want.RescoredPairs},
		{obs.MAuditDeltaRescoredCands, want.RescoredCandidates},
	}
	for _, c := range checks {
		if got := s.Counter(c.name); got != int64(c.want) {
			t.Errorf("counter %s = %d, want %d", c.name, got, c.want)
		}
	}
	for _, c := range checks[:1] {
		if s.Counter(c.name) == 0 {
			t.Errorf("counter %s = 0; fixture should dirty regions", c.name)
		}
	}
	if h := s.Histograms[obs.MAuditDeltaSeconds]; h.Count != int64(runs) {
		t.Errorf("delta seconds histogram count = %d, want %d", h.Count, runs)
	}
}

// TestDeltaConfigValidation: the new knob rejects nonsense.
func TestDeltaConfigValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.5} {
		cfg := DefaultConfig()
		cfg.DeltaDirtyFallback = bad
		u := newDeltaUniverse(stats.NewRNG(1), 4, partition.Options{Seed: 1})
		if _, err := NewDeltaAuditor(u.dp, cfg); err == nil {
			t.Errorf("DeltaDirtyFallback=%v accepted", bad)
		}
		if _, err := Audit(u.dp.Snapshot(), cfg); err == nil {
			t.Errorf("batch audit accepted DeltaDirtyFallback=%v", bad)
		}
	}
}

// requireCacheInvariant checks the delta auditor's pair cache against its
// definition: strictly lessUnfair-ordered, and equal pair for pair to the
// canonically sorted complete candidate set of a cold batch sweep of the
// universe — every candidate, not only the flagged ones.
func requireCacheInvariant(t *testing.T, label string, da *DeltaAuditor, u *deltaUniverse) {
	t.Helper()
	got := da.candidates
	for i := 1; i < len(got); i++ {
		if !lessUnfair(&got[i-1], &got[i]) {
			t.Fatalf("%s: cache out of order at %d:\n %+v\n %+v", label, i, got[i-1], got[i])
		}
	}
	cold := partition.NewDeltaByGrid(u.grid, u.live, u.opts)
	_, _, want, err := auditEngine(context.Background(), cold.Snapshot(), da.cfg, auditHooks{keepAll: true})
	if err != nil {
		t.Fatalf("%s: cold sweep: %v", label, err)
	}
	sortUnfairPairs(want, 1)
	if len(got) != len(want) {
		t.Fatalf("%s: cache holds %d pairs, cold sweep has %d candidates", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: cache pair %d differs:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestDeltaCandidateCacheInvariant drives a seeded update stream — localized
// churn, a region crossing MinRegionSize both ways, and a widespread batch
// that trips the dirty-fraction fallback — under both flagging rules, and
// checks the ordered cache after every pass. Each result's Pairs is then
// scribbled over, and a pass with no updates must still match the cold
// audit: the result must not alias the cache.
func TestDeltaCandidateCacheInvariant(t *testing.T) {
	for _, fdr := range []float64{0, 0.1} {
		rng := stats.NewRNG(52207)
		u := newDeltaUniverse(rng, 24, partition.Options{Seed: 31, IncomeSampleCap: 64})
		floorCell, minN := u.sparsestCell()
		cfg := DefaultConfig()
		cfg.Alpha = 0.05
		cfg.MCWorlds = 199
		cfg.FDR = fdr
		cfg.MinRegionSize = minN + 20 // the sparsest cell starts below the floor
		da, err := NewDeltaAuditor(u.dp, cfg)
		if err != nil {
			t.Fatal(err)
		}

		var grown []partition.Observation
		steps := []struct {
			name  string
			apply func()
		}{
			{"seed", func() {}},
			{"churn", func() { u.mutateCell(t, rng, 3, 12) }},
			{"grow past floor", func() {
				for i := 0; i < 40; i++ {
					o := randomCellObs(rng, floorCell, 0.3, 0.8, 51_000)
					grown = append(grown, o)
					u.dp.Insert(o)
					u.live = append(u.live, o)
				}
			}},
			{"churn", func() { u.mutateCell(t, rng, 7, 10) }},
			{"shrink below floor", func() {
				for _, o := range grown {
					if _, err := u.dp.Delete(o); err != nil {
						t.Fatal(err)
					}
					for k := range u.live {
						if u.live[k] == o {
							u.live[k] = u.live[len(u.live)-1]
							u.live = u.live[:len(u.live)-1]
							break
						}
					}
				}
			}},
			{"widespread", func() { u.mutate(t, rng, 120) }},
			{"churn", func() { u.mutateCell(t, rng, 1, 9) }},
		}
		sawFull, sawChurn := false, false
		for si, step := range steps {
			label := fmt.Sprintf("fdr=%v step %d (%s)", fdr, si, step.name)
			before := len(da.eligible)
			step.apply()
			res, st, err := da.Audit(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if si > 0 && st.FullSweep {
				sawFull = true
			}
			if si > 0 && !st.FullSweep && len(da.eligible) != before {
				sawChurn = true
			}
			requireFunnel(t, label, res, st)
			requireCacheInvariant(t, label, da, u)
			want := u.coldResult(t, cfg)
			requireSameResult(t, label, res, want)

			for i := range res.Pairs {
				res.Pairs[i] = UnfairPair{I: -1, J: -1, Tau: math.Inf(1)}
			}
			res.Pairs = append(res.Pairs[:cap(res.Pairs)], UnfairPair{})
			again, _, err := da.Audit(context.Background())
			if err != nil {
				t.Fatalf("%s: idle pass: %v", label, err)
			}
			requireSameResult(t, label+" after scribbling the result", again, want)
		}
		if !sawFull || !sawChurn {
			t.Fatalf("fdr=%v: stream exercised fallback=%v eligibility churn=%v; want both", fdr, sawFull, sawChurn)
		}
	}
}

// TestDeltaHugeIncomeMatchesBatch pins the rank grid's clamp for repaired
// values far outside its span. The delta auditor keeps the grid it was
// built on, so incomes inserted later may lie beyond it; (v-Lo)*Scale then
// exceeds the int range, and a conversion that wrapped instead of clamping
// would drop those values into bucket 0, break bucket monotonicity, and
// corrupt every Mann–Whitney statistic of the region. The delta re-audit
// must stay byte-identical to a batch audit of the same snapshot, whose grid
// spans the new values. A near-1 Alpha flags almost every candidate, so
// their scores are compared too.
func TestDeltaHugeIncomeMatchesBatch(t *testing.T) {
	const cells, perCell = 12, 60
	rng := stats.NewRNG(1025)
	var data []partition.Observation
	for c := 0; c < cells; c++ {
		share := 0.15
		if c%2 == 1 {
			share = 0.8
		}
		for i := 0; i < perCell; i++ {
			data = append(data, randomCellObs(rng, c, 0.3+0.04*float64(c), share, 40_000+2_000*float64(c)+8_000*rng.NormFloat64()))
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(cells, 1)), cells, 1)
	u := &deltaUniverse{grid: grid, opts: partition.Options{Seed: 3}, live: data}
	u.dp = partition.NewDeltaByGrid(grid, data, u.opts)

	cfg := DefaultConfig()
	cfg.Alpha = 0.999
	cfg.MCWorlds = 99
	cfg.MinRegionSize = 10
	cfg.DeltaDirtyFallback = 1 // force the incremental path
	da, err := NewDeltaAuditor(u.dp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := da.Audit(context.Background()); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 40; k++ {
		o := randomCellObs(rng, 0, 0.3, 0.5, 0)
		o.Income = 1e25 * (1 + float64(k)*1e-6) // distinct, far above the grid
		u.dp.Insert(o)
		u.live = append(u.live, o)
	}
	res, st, err := da.Audit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.FullSweep {
		t.Fatal("re-audit fell back to a full sweep with fallback pinned to 1")
	}
	want := u.coldResult(t, cfg)
	if want.Candidates == 0 {
		t.Fatal("batch audit has no candidates; the comparison proves nothing")
	}
	requireSameResult(t, "delta vs batch after huge incomes", res, want)
}
