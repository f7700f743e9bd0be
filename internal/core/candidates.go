package core

import (
	"sort"

	"lcsf/internal/partition"
)

// candidatePlan is the audit's pair-enumeration strategy, fixed before the
// sweep starts. Dense plans walk the full upper triangle exactly as the
// pre-index engine did. Indexed plans enumerate, for each probe region i, only
// the positions j > i whose key on ONE chosen summary dimension falls in the
// probe's prune window — a sorted sliding-window interval join that is
// O(R log R + candidates) instead of O(R^2). Soundness needs only the probe's
// own window: a window is an individually sufficient rejection certificate,
// so a pair skipped at probe i is a guaranteed gate failure no matter what
// probe j's window would have said, and every true candidate (i, j) is
// emitted while probing min(i, j).
//
// Regions whose key is NaN on the chosen dimension are absent from the sorted
// order and therefore never emitted through a window; every window
// construction guarantees such partners fail the corresponding gate (NaN
// income mean means an empty sample, which every similarity metric rejects;
// share and rate keys of eligible regions are always finite). Probes the
// metric cannot bound (hasWindow false) fall back to a full row scan, keeping
// the plan sound per probe rather than all-or-nothing.
type candidatePlan struct {
	indexed bool

	// Sorted order of the chosen dimension: keys ascending, pos[i] the
	// region position holding keys[i].
	dim  PruneDim
	keys []float64
	pos  []int32

	// Per-probe windows on the chosen dimension, and the chosen provider's
	// window source, kept so repair can recompute single probes; nil when
	// the plan has no windows.
	windows   []PruneWindow
	hasWindow []bool
	window    windowFunc
}

// windowFunc computes one probe's window from its summary and the envelope;
// false means the probe cannot be bounded.
type windowFunc func(s *partition.RegionSummary, env *partition.SummaryStats) (PruneWindow, bool)

// planProvider is one window source competing to drive enumeration: a
// prunable gate metric, or the engine's own Eta interval on positive rate.
type planProvider struct {
	dim       PruneDim
	window    windowFunc
	windows   []PruneWindow
	hasWindow []bool
	estimated int64
}

// buildCandidatePlan assembles the providers available under cfg, estimates
// each one's emission count with per-probe binary searches, and picks the
// cheapest. The provider order (dissimilarity window, Eta window, similarity
// window) is fixed, so ties break deterministically. A nil index or an empty
// provider set yields a dense plan.
func buildCandidatePlan(cfg *Config, ix *partition.SummaryIndex) *candidatePlan {
	if ix == nil {
		return &candidatePlan{}
	}
	sums := ix.Summaries
	env := &ix.Stats

	var providers []*planProvider
	if m, ok := cfg.Dissimilarity.(PrunableMetric); ok {
		providers = append(providers, newPlanProvider(0, metricWindow(m, cfg.Delta), sums, env))
	}
	if cfg.Eta > 0 {
		providers = append(providers, newPlanProvider(PrunePositiveRate, etaWindow(cfg.Eta), sums, env))
	}
	if m, ok := cfg.Similarity.(PrunableMetric); ok {
		providers = append(providers, newPlanProvider(0, metricWindow(m, cfg.Epsilon), sums, env))
	}

	var best *planProvider
	for _, pr := range providers {
		pr.estimate(ix, len(sums))
		if best == nil || pr.estimated < best.estimated {
			best = pr
		}
	}
	if best == nil {
		return &candidatePlan{}
	}
	d, ok := best.dim.summaryDim()
	if !ok {
		// A prunable metric that offers Bounds but no windows (the rank
		// tests): enumerate full rows but keep the plan indexed so the
		// summary bounds still filter each emitted pair.
		return &candidatePlan{
			indexed:   true,
			hasWindow: make([]bool, len(sums)),
		}
	}
	keys, pos := ix.Dim(d)
	return &candidatePlan{
		indexed:   true,
		dim:       best.dim,
		keys:      keys,
		pos:       pos,
		windows:   best.windows,
		hasWindow: best.hasWindow,
		window:    best.window,
	}
}

// repair brings the plan up to date after the index re-summarized the dirty
// positions in place (SummaryIndex.UpdateRegion) and the envelope stayed
// unchanged: it re-reads the sorted order, which UpdateRegion may have
// resliced, and recomputes the dirty probes' windows. A window is a pure
// function of its probe's summary, the threshold and the envelope, so every
// clean probe's window is already current. The provider is not re-chosen:
// each window is an individually sufficient rejection certificate, so the
// choice steers enumeration cost only, never which pairs pass the gates — a
// repaired plan yields exactly the candidates a rebuilt one would.
func (pl *candidatePlan) repair(ix *partition.SummaryIndex, dirty []int) {
	if pl.window == nil {
		return // dense, or indexed without windows: nothing per probe
	}
	d, _ := pl.dim.summaryDim()
	pl.keys, pl.pos = ix.Dim(d)
	for _, i := range dirty {
		pl.windows[i], pl.hasWindow[i] = probeWindow(pl.window, &ix.Summaries[i], &ix.Stats)
	}
}

// probeWindow is one probe's entry in a plan: its window, or the zero window
// and false when the provider cannot bound it.
func probeWindow(window windowFunc, s *partition.RegionSummary, env *partition.SummaryStats) (PruneWindow, bool) {
	if w, ok := window(s, env); ok {
		return w, true
	}
	return PruneWindow{}, false
}

// newPlanProvider materializes one window source's per-probe windows. A
// zero dim is read off the first windowed probe.
func newPlanProvider(dim PruneDim, window windowFunc, sums []partition.RegionSummary, env *partition.SummaryStats) *planProvider {
	pr := &planProvider{
		dim:       dim,
		window:    window,
		windows:   make([]PruneWindow, len(sums)),
		hasWindow: make([]bool, len(sums)),
	}
	for i := range sums {
		pr.windows[i], pr.hasWindow[i] = probeWindow(window, &sums[i], env)
		if pr.dim == 0 && pr.hasWindow[i] {
			pr.dim = pr.windows[i].Dim
		}
	}
	return pr
}

// metricWindow is a prunable gate metric's window source at its threshold.
func metricWindow(m PrunableMetric, threshold float64) windowFunc {
	return func(s *partition.RegionSummary, env *partition.SummaryStats) (PruneWindow, bool) {
		return m.PruneWindow(s, threshold, env)
	}
}

// etaWindow is the engine-owned Eta window source: the fast path declares a
// pair fair when |rate_a - rate_b| <= eta, so only partners with rates
// outside the (one-ulp-shrunk) eta band around the probe's rate can survive.
// Exact, and available whenever Eta is positive regardless of the
// configured metrics.
func etaWindow(eta float64) windowFunc {
	return func(s *partition.RegionSummary, _ *partition.SummaryStats) (PruneWindow, bool) {
		r := s.PositiveRate
		return excludeBand(PrunePositiveRate, r-eta, r+eta), true
	}
}

// estimate predicts the provider's ordered emission count by binary-searching
// each probe's window against the sorted keys; probes without a window charge
// a full row.
func (pr *planProvider) estimate(ix *partition.SummaryIndex, regions int) {
	d, ok := pr.dim.summaryDim()
	if !ok {
		pr.estimated = int64(regions) * int64(regions)
		return
	}
	keys, _ := ix.Dim(d)
	for i, w := range pr.windows {
		if !pr.hasWindow[i] {
			pr.estimated += int64(regions)
			continue
		}
		pr.estimated += int64(windowCount(keys, w))
	}
}

// windowCount counts sorted keys a window admits.
func windowCount(keys []float64, w PruneWindow) int {
	if w.Inside {
		lo := sort.SearchFloat64s(keys, w.Lo)
		hi := sort.Search(len(keys), func(k int) bool { return keys[k] > w.Hi })
		if hi < lo {
			return 0
		}
		return hi - lo
	}
	left := sort.Search(len(keys), func(k int) bool { return keys[k] > w.Lo })
	right := sort.SearchFloat64s(keys, w.Hi)
	if right < left {
		right = left
	}
	return left + (len(keys) - right)
}

// forEachPartner streams probe i's partners j >= from, j != i, into yield,
// stopping early (and returning false) when yield returns false. The batch
// sweep passes from = i+1 (the upper triangle); the delta auditor passes 0 to
// probe a dirty region in both directions, which is sound because a pair the
// probe's window rejects is a certified gate failure whichever endpoint the
// certificate came from. Dense plans and window-less probes walk the row;
// windowed probes walk the sorted runs their window admits. For an Outside
// window whose one-ulp shrink inverted the band (Lo > Hi), the runs are
// clamped so no position is visited twice.
func (pl *candidatePlan) forEachPartner(i, from, regions int, yield func(j int) bool) bool {
	if !pl.indexed || !pl.hasWindow[i] {
		for j := from; j < regions; j++ {
			if j != i && !yield(j) {
				return false
			}
		}
		return true
	}
	w := pl.windows[i]
	if w.Inside {
		for idx := sort.SearchFloat64s(pl.keys, w.Lo); idx < len(pl.keys) && pl.keys[idx] <= w.Hi; idx++ {
			if j := int(pl.pos[idx]); j >= from && j != i {
				if !yield(j) {
					return false
				}
			}
		}
		return true
	}
	left := sort.Search(len(pl.keys), func(k int) bool { return pl.keys[k] > w.Lo })
	right := sort.SearchFloat64s(pl.keys, w.Hi)
	if right < left {
		right = left
	}
	for idx := 0; idx < left; idx++ {
		if j := int(pl.pos[idx]); j >= from && j != i {
			if !yield(j) {
				return false
			}
		}
	}
	for idx := right; idx < len(pl.keys); idx++ {
		if j := int(pl.pos[idx]); j >= from && j != i {
			if !yield(j) {
				return false
			}
		}
	}
	return true
}
