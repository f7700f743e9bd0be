package core

import (
	"sort"
	"sync"

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

	// Per-probe windows on the chosen dimension.
	windows   []PruneWindow
	hasWindow []bool

	// estimated is the chosen provider's predicted emission count (ordered,
	// both directions), recorded for observability.
	estimated int64
}

// planProvider is one window source competing to drive enumeration: a
// prunable gate metric, or the engine's own Eta interval on positive rate.
type planProvider struct {
	dim       PruneDim
	windows   []PruneWindow
	hasWindow []bool
	estimated int64
}

// planChunks runs fn over [0, n) cut into near-equal per-worker chunks, one
// goroutine each. Chunk boundaries are a pure function of (n, workers) and
// each chunk writes disjoint indices, so any per-index output is identical to
// a sequential fill; order-sensitive reductions must fold per-chunk partials
// in chunk order (see planProvider.estimate).
func planChunks(n, workers int, fn func(chunk, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, c*n/workers, (c+1)*n/workers)
		}(c)
	}
	wg.Wait()
}

// buildCandidatePlan assembles the providers available under cfg, estimates
// each one's emission count with per-probe binary searches, and picks the
// cheapest, using up to workers goroutines for the per-probe window fills and
// estimates. Every parallel piece merges deterministically (disjoint index
// writes; partial sums folded in chunk order), so the plan is byte-identical
// at any worker count. The provider order (dissimilarity window, Eta window,
// similarity window) is fixed, so ties break deterministically. A nil index
// or an empty provider set yields a dense plan.
func buildCandidatePlan(cfg *Config, ix *partition.SummaryIndex, workers int) *candidatePlan {
	if ix == nil {
		return &candidatePlan{}
	}
	sums := ix.Summaries
	env := &ix.Stats

	var providers []*planProvider
	if m, ok := cfg.Dissimilarity.(PrunableMetric); ok {
		providers = append(providers, metricProvider(m, cfg.Delta, sums, env, workers))
	}
	if cfg.Eta > 0 {
		providers = append(providers, etaProvider(cfg.Eta, sums, workers))
	}
	if m, ok := cfg.Similarity.(PrunableMetric); ok {
		providers = append(providers, metricProvider(m, cfg.Epsilon, sums, env, workers))
	}

	var best *planProvider
	for _, pr := range providers {
		pr.estimate(ix, len(sums), workers)
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
			estimated: int64(len(sums)) * int64(len(sums)),
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
		estimated: best.estimated,
	}
}

// metricProvider materializes one prunable metric's per-probe windows, in
// parallel chunks of disjoint probes. PruneWindow implementations are pure
// functions of the summary, threshold, and envelope, so the fill is
// position-determined; the provider's dim is read off the first windowed
// probe afterward rather than racing chunk writes on one field.
func metricProvider(m PrunableMetric, threshold float64, sums []partition.RegionSummary, env *partition.SummaryStats, workers int) *planProvider {
	pr := &planProvider{
		windows:   make([]PruneWindow, len(sums)),
		hasWindow: make([]bool, len(sums)),
	}
	planChunks(len(sums), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			w, ok := m.PruneWindow(&sums[i], threshold, env)
			if ok {
				pr.windows[i], pr.hasWindow[i] = w, true
			}
		}
	})
	for i := range pr.hasWindow {
		if pr.hasWindow[i] {
			pr.dim = pr.windows[i].Dim
			break
		}
	}
	return pr
}

// etaProvider materializes the engine-owned Eta windows: the fast path
// declares a pair fair when |rate_a - rate_b| <= eta, so only partners with
// rates outside the (one-ulp-shrunk) eta band around the probe's rate can
// survive. Exact, and available whenever Eta is positive regardless of the
// configured metrics. Filled in parallel chunks of disjoint probes.
func etaProvider(eta float64, sums []partition.RegionSummary, workers int) *planProvider {
	pr := &planProvider{
		dim:       PrunePositiveRate,
		windows:   make([]PruneWindow, len(sums)),
		hasWindow: make([]bool, len(sums)),
	}
	planChunks(len(sums), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := sums[i].PositiveRate
			pr.windows[i] = excludeBand(PrunePositiveRate, r-eta, r+eta)
			pr.hasWindow[i] = true
		}
	})
	return pr
}

// estimate predicts the provider's ordered emission count by binary-searching
// each probe's window against the sorted keys; probes without a window charge
// a full row. Chunks accumulate disjoint partial sums that fold in chunk
// order — integer addition, so the total equals the sequential sum exactly.
func (pr *planProvider) estimate(ix *partition.SummaryIndex, regions, workers int) {
	d, ok := pr.dim.summaryDim()
	if !ok {
		pr.estimated = int64(regions) * int64(regions)
		return
	}
	keys, _ := ix.Dim(d)
	partial := make([]int64, workers)
	if workers < 1 {
		partial = make([]int64, 1)
	}
	planChunks(len(pr.windows), workers, func(c, lo, hi int) {
		var sum int64
		for i := lo; i < hi; i++ {
			if !pr.hasWindow[i] {
				sum += int64(regions)
				continue
			}
			sum += int64(windowCount(keys, pr.windows[i]))
		}
		partial[c] = sum
	})
	for _, s := range partial {
		pr.estimated += s
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
