package core

import (
	"context"
	"slices"
	"sort"

	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// DeltaAuditor audits a live partitioning incrementally. It wraps a
// partition.DeltaPartitioning and, after each applied update batch, re-scores
// only the pairs a dirty region can have changed, reusing everything else
// from its pair cache. The contract is exact equivalence: Audit returns a
// Result byte-identical — flagged set, per-pair p-values, counts, ordering —
// to what the batch engine would return for a cold audit of the same
// snapshot under the same Config.
//
// Three properties of the batch engine make that equivalence hold without
// re-deriving anything probabilistically:
//
//   - Pair locality: every per-pair field (gate scores, tau, the Monte-Carlo
//     p-value) is a pure function of the two regions' aggregates, the pair's
//     region labels, and the Config — never of other regions. So a pair with
//     both endpoints clean cannot have changed, and the dirty-endpoint rule
//     ("drop and re-score every cached pair touching a dirty region") is a
//     sound invalidation set.
//   - Certificate symmetry: the candidate index's prune windows are
//     individually sufficient gate-failure certificates (see candidatePlan),
//     so probing a dirty region's own window — both directions, via
//     forEachPartner from position 0 — covers every pair the cold sweep
//     could emit with a dirty endpoint; window-rejected pairs are exact-gate
//     failures and correctly stay out of the cache.
//   - Order-free flagging: per-pair Alpha is a value threshold and
//     Benjamini–Hochberg's cut depends only on the p-values at or below q
//     and the candidate count, so Result.Pairs can be reassembled from a
//     cache filled across many incremental passes. Only the cached pairs at
//     or below the flag cut can be flagged, and the cache keeps exactly
//     those in canonical lessUnfair order (pairCache.low), so reassembly
//     reads the low set alone.
//
// The Monte-Carlo null store persists across audits (its p-values are
// key-seeded, bit-identical whatever the store's fill state), so unchanged
// count signatures keep their filled entries across deltas. Cached
// candidates above the flag cut carry the store's canonical above-cut
// p-value and zero scores, and no later pass can flag them, exactly as the
// cold sweep's would.
//
// A DeltaAuditor is not safe for concurrent use; callers serialize updates
// (through the DeltaPartitioning) and Audit calls. The incremental pass is
// single-goroutine, and its cost follows the change, not the universe: it
// checks eligibility, repairs the index and the candidate plan for the dirty
// regions only, re-scores their neighborhood, swaps their pairs in the
// per-region cache, and copies the flagged pairs out of the low set. Fallback
// full sweeps and eligible-roster rebuilds use the batch engine's
// parallelism under Config.Workers.
type DeltaAuditor struct {
	cfg Config
	dp  *partition.DeltaPartitioning

	// nulls is the persistent Monte-Carlo null store; fallback full sweeps
	// are pointed at it too.
	nulls *stats.NullStore

	inited   bool
	run      *auditRunner // batch-engine state, repaired incrementally
	eligible []int        // eligible region labels, ascending
	posOf    map[int]int  // label -> position in run.regions

	cache    pairCache
	rescored []UnfairPair // the incremental pass's rescore buffer, reused
	isDirty  []bool       // by region label; set for one pass's dirty labels only
}

// pairCache holds every pair that passed the exact gate cascade, laid out so
// that a pass touches only the pairs of its dirty regions and the flaggable
// ones. Pairs name their regions by label, which survives eligibility churn
// (churn only remaps positions).
//
//   - slab stores the pairs by slot; free lists the slots of dropped pairs,
//     which the next stored pairs take first.
//   - byLabel[l] lists, in no order, the pairs with an endpoint labeled l,
//     each as slot<<1 | side, side 0 for the pair's I and 1 for its J.
//     Every stored pair is listed under both of its labels, so dropping a
//     region's pairs walks that region's list alone, and at[slot][side] is
//     the entry's position in its list, so unlisting the partner's entry is
//     one swap-remove that fixes the moved entry's back-index from the
//     entry alone.
//   - low holds a copy of each stored pair with P at or below cut
//     (Config.nullCut), in canonical lessUnfair order. Every other stored
//     pair carries the null store's canonical above-cut p-value and can
//     never be flagged. A commit rebuilds it in one merge into spare and
//     swaps the two.
//   - Under FDR, lowP holds the low set's p-values ascending, kept by the
//     same merge, so the Benjamini–Hochberg cut reads it without a sort.
type pairCache struct {
	slab    []UnfairPair
	at      [][2]int32
	free    []int32
	byLabel [][]int32
	low     []UnfairPair
	spare   []UnfairPair
	cut     float64

	gone []UnfairPair // the commit's dropped low pairs

	fdr          bool
	lowP, spareP []float64
	goneP        []float64 // gone's p-values, then the added ones
}

// size is the number of stored pairs.
func (c *pairCache) size() int { return len(c.slab) - len(c.free) }

// reset makes the cache hold exactly pairs, whose endpoints are labels in
// [0, labels), for cfg's flagging rule. It keeps pairs as its slab and
// sorts only the low subset.
func (c *pairCache) reset(pairs []UnfairPair, labels int, cfg *Config) {
	cut := cfg.nullCut()
	counts := make([]int, labels)
	lows := 0
	for i := range pairs {
		counts[pairs[i].I]++
		counts[pairs[i].J]++
		if pairs[i].P <= cut {
			lows++
		}
	}
	entries := make([]int32, 2*len(pairs))
	c.byLabel = make([][]int32, labels)
	for l, n := range counts {
		c.byLabel[l], entries = entries[:0:n], entries[n:]
	}
	c.slab, c.free, c.cut, c.fdr = pairs, nil, cut, cfg.FDR > 0
	c.at = make([][2]int32, len(pairs))
	c.low, c.spare = make([]UnfairPair, 0, lows), nil
	for i := range pairs {
		c.list(int32(i))
		if p := &pairs[i]; p.P <= cut {
			c.low = append(c.low, *p)
		}
	}
	sortUnfairPairs(c.low)
	c.lowP, c.spareP = nil, nil
	if c.fdr {
		c.lowP = make([]float64, len(c.low))
		for i := range c.low {
			c.lowP[i] = c.low[i].P
		}
		sort.Float64s(c.lowP)
	}
}

// list enters slot s under both of its pair's labels.
func (c *pairCache) list(s int32) {
	p := &c.slab[s]
	c.at[s] = [2]int32{int32(len(c.byLabel[p.I])), int32(len(c.byLabel[p.J]))}
	c.byLabel[p.I] = append(c.byLabel[p.I], s<<1)
	c.byLabel[p.J] = append(c.byLabel[p.J], s<<1|1)
}

// unlist swap-removes the entry at position k of label l's list.
func (c *pairCache) unlist(l int, k int32) {
	list := c.byLabel[l]
	last := len(list) - 1
	e := list[last]
	list[k] = e
	c.at[e>>1][e&1] = k
	c.byLabel[l] = list[:last]
}

// commit drops every stored pair with an endpoint among the dirty labels,
// stores rescored, none of which may have two clean endpoints, and returns
// how many pairs it dropped. A pair with two dirty endpoints is unlisted
// from its second label when the first drops it, so it leaves, and is
// counted, once. It uses rescored as scratch.
func (c *pairCache) commit(dirty []int, rescored []UnfairPair) int {
	dropped := 0
	c.gone = c.gone[:0]
	for _, l := range dirty {
		for _, e := range c.byLabel[l] {
			s, side := e>>1, e&1
			p := &c.slab[s]
			other := p.J
			if side == 1 {
				other = p.I
			}
			c.unlist(other, c.at[s][1-side])
			if p.P <= c.cut {
				c.gone = append(c.gone, *p)
			}
			c.free = append(c.free, s)
		}
		dropped += len(c.byLabel[l])
		c.byLabel[l] = c.byLabel[l][:0]
	}

	lows := 0
	for _, p := range rescored {
		var s int32
		if n := len(c.free); n > 0 {
			s = c.free[n-1]
			c.free = c.free[:n-1]
			c.slab[s] = p
		} else {
			s = int32(len(c.slab))
			c.slab = append(c.slab, p)
			c.at = append(c.at, [2]int32{})
		}
		c.list(s)
		if p.P <= c.cut {
			rescored[lows] = p
			lows++
		}
	}
	if len(c.gone) > 0 || lows > 0 {
		c.mergeLow(rescored[:lows])
	}
	return dropped
}

// mergeLow rebuilds the low set in one merge into spare: without the
// dropped low pairs (c.gone) and with adds. Under FDR it rebuilds lowP
// alike. It sorts c.gone and adds.
func (c *pairCache) mergeLow(adds []UnfairPair) {
	sortUnfairPairs(c.gone)
	sortUnfairPairs(adds)
	out := slices.Grow(c.spare[:0], len(c.low)-len(c.gone)+len(adds))
	c.low, c.spare = splice(out, c.low, c.gone, adds, lessUnfair), c.low[:0]
	if !c.fdr {
		return
	}
	gone := c.goneP[:0]
	for k := range c.gone {
		gone = append(gone, c.gone[k].P)
	}
	added := gone[len(gone):] // the added p-values, in gone's buffer after it
	for k := range adds {
		added = append(added, adds[k].P)
	}
	c.goneP = gone
	sort.Float64s(gone)
	sort.Float64s(added)
	ps := slices.Grow(c.spareP[:0], len(c.lowP)-len(gone)+len(added))
	c.lowP, c.spareP = splice(ps, c.lowP, gone, added, lessFloat), c.lowP[:0]
}

// flagged copies out Result.Pairs. Under Alpha every low pair is flagged,
// since the low set's cut is Alpha, so it is one copy of the low set.
// Under FDR the Benjamini–Hochberg cut over every stored pair reads the
// sorted lowP, and the low pairs at or below it are copied in order. The
// copy is exact-size and never aliases the cache.
func (c *pairCache) flagged(cfg *Config) []UnfairPair {
	if cfg.FDR == 0 { //lint:floateq-ok zero-value-config-default
		return slices.Clip(append([]UnfairPair{}, c.low...))
	}
	pstar, ok := stats.BenjaminiHochbergCutSorted(c.lowP, c.size(), cfg.FDR)
	if !ok {
		return []UnfairPair{}
	}
	out := make([]UnfairPair, 0, sort.Search(len(c.lowP), func(i int) bool { return c.lowP[i] > pstar }))
	for i := range c.low {
		if c.low[i].P <= pstar {
			out = append(out, c.low[i])
		}
	}
	return out
}

// DeltaStats is one delta audit's funnel: what the update stream dirtied,
// what that invalidated, and how much work the incremental pass actually did.
// On every incremental pass, Result.Candidates == ReusedPairs +
// RescoredCandidates and RescoredPairs == WindowCandidates - BoundsRejections;
// the obs counters under audit.delta.* accumulate the same quantities.
type DeltaStats struct {
	// FullSweep reports that this audit ran the batch engine instead of the
	// incremental rescore: the first audit, or a dirty fraction above
	// Config.DeltaDirtyFallback. On a full sweep the remaining fields after
	// InvalidatedPairs describe the rebuild (ReusedPairs is zero and
	// RescoredCandidates is the full candidate count); the batch engine's own
	// audit.* counters carry its funnel detail.
	FullSweep bool
	// DirtyRegions is the number of regions the update stream touched since
	// the last successful audit.
	DirtyRegions int
	// InvalidatedPairs is the number of cached candidate pairs dropped
	// because a dirty region participates in them.
	InvalidatedPairs int
	// ReusedPairs is the number of cached candidate pairs carried over
	// without re-scoring — both endpoints clean, so unchanged by pair
	// locality.
	ReusedPairs int
	// RescoredPairs is the number of pairs re-run through the exact gate
	// cascade (a dirty endpoint, admitted by the probe window and the
	// summary bounds).
	RescoredPairs int
	// RescoredCandidates is how many rescored pairs passed every gate and
	// (re-)entered the candidate cache.
	RescoredCandidates int
	// WindowCandidates is the number of pairs the dirty probes' prune
	// windows emitted; BoundsRejections of them were discarded by the O(1)
	// summary bounds before the exact cascade.
	WindowCandidates int
	BoundsRejections int
}

// NewDeltaAuditor wires a delta auditor over a live partitioning. The first
// Audit call is a full batch sweep that seeds the pair cache; subsequent
// calls are incremental.
func NewDeltaAuditor(dp *partition.DeltaPartitioning, cfg Config) (*DeltaAuditor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	da := &DeltaAuditor{
		cfg:   cfg,
		dp:    dp,
		nulls: stats.NewNullStore(cfg.Seed, cfg.MCWorlds, cfg.nullCut()),
	}
	return da, nil
}

// deltaDirtyFallbackDefault is the dirty-region fraction above which an
// incremental pass falls back to the batch engine when
// Config.DeltaDirtyFallback is zero.
const deltaDirtyFallbackDefault = 0.25

// Audit refreshes the snapshot, runs the delta (or fallback full) audit, and
// returns the result with this pass's funnel. On error — including context
// cancellation — the pair cache and the partitioning's dirty set are left so
// that a retry observes the same pending work; on success the dirty set is
// cleared.
func (da *DeltaAuditor) Audit(ctx context.Context) (*Result, DeltaStats, error) {
	col := da.cfg.collector()
	now := da.cfg.clock()
	start := now()

	dirty := da.dp.Dirty()
	snap := da.dp.Snapshot()

	frac := da.cfg.DeltaDirtyFallback
	if frac == 0 { //lint:floateq-ok zero-means-default sentinel
		frac = deltaDirtyFallbackDefault
	}
	full := !da.inited
	if !full && len(dirty) > 0 {
		// The fraction is over the whole region roster: the dirty set can
		// include ineligible regions, and dirty ⊆ regions keeps the ratio in
		// [0, 1] — so a threshold of 1 genuinely disables the fallback.
		den := len(snap.Regions)
		if den < 1 {
			den = 1
		}
		if float64(len(dirty)) > frac*float64(den) {
			full = true
		}
	}

	var res *Result
	var st DeltaStats
	var err error
	if full {
		res, st, err = da.fullSweep(ctx, snap, dirty)
	} else {
		res, st, err = da.incremental(ctx, snap, dirty)
	}
	if err != nil {
		return nil, DeltaStats{}, err
	}
	da.dp.ClearDirty()

	elapsed := now().Sub(start)
	col.Inc(obs.MAuditDeltaRuns)
	if st.FullSweep {
		col.Inc(obs.MAuditDeltaFullSweeps)
	}
	col.Count(obs.MAuditDeltaDirtyRegions, int64(st.DirtyRegions))
	col.Count(obs.MAuditDeltaInvalidated, int64(st.InvalidatedPairs))
	col.Count(obs.MAuditDeltaReused, int64(st.ReusedPairs))
	col.Count(obs.MAuditDeltaRescored, int64(st.RescoredPairs))
	col.Count(obs.MAuditDeltaRescoredCands, int64(st.RescoredCandidates))
	col.ObserveSeconds(obs.MAuditDeltaSeconds, elapsed)
	if col != nil {
		col.Event("audit.delta.finish", "", "delta audit finished", map[string]any{
			"full_sweep":    st.FullSweep,
			"dirty_regions": st.DirtyRegions,
			"invalidated":   st.InvalidatedPairs,
			"reused":        st.ReusedPairs,
			"rescored":      st.RescoredPairs,
			"pairs_flagged": len(res.Pairs),
			"seconds":       elapsed.Seconds(),
		})
	}
	return res, st, nil
}

// fullSweep runs the batch engine with the keepAll hook and adopts its state:
// eligible positions, prepared caches, summary index, plan, and the complete
// candidate set, which becomes the pair cache.
func (da *DeltaAuditor) fullSweep(ctx context.Context, snap *partition.Partitioning, dirty []int) (*Result, DeltaStats, error) {
	res, run, cands, err := auditEngine(ctx, snap, da.cfg, auditHooks{keepAll: true, nulls: da.nulls})
	if err != nil {
		return nil, DeltaStats{}, err
	}
	st := DeltaStats{
		FullSweep:          true,
		DirtyRegions:       len(dirty),
		InvalidatedPairs:   da.cache.size(),
		RescoredCandidates: len(cands),
	}
	da.adopt(run)
	da.cache.reset(cands, len(snap.Regions), &da.cfg)
	da.inited = true
	return res, st, nil
}

// adopt installs a batch runner's sweep state as the auditor's incremental
// base.
func (da *DeltaAuditor) adopt(run *auditRunner) {
	da.run = run
	da.eligible = make([]int, len(run.regions))
	da.posOf = make(map[int]int, len(run.regions))
	for i, r := range run.regions {
		da.eligible[i] = r.Index
		da.posOf[r.Index] = i
	}
}

// rebuildState sets up a fresh runner for a changed eligible set through the
// batch engine's setup path (index, plan, then the parallel prepare, stopped
// by ctx) and adopts it; on error the current runner stays. The pair cache
// is untouched: its pairs carry labels, not positions, and which cached
// pairs must go is decided by dirty labels. It publishes nothing to the
// collector — the delta pass reports its own funnel.
func (da *DeltaAuditor) rebuildState(ctx context.Context, snap *partition.Partitioning, newEligible []int) error {
	run, err := newAuditRunner(ctx, da.cfg, snap, newEligible, da.nulls, da.cfg.workers(), nil)
	if err != nil {
		return err
	}
	da.adopt(run)
	return nil
}

// incremental is the delta pass: repair the per-region state the updates
// staled, re-score the dirty neighborhood, and reassemble the result from
// the pair cache. Mutations are ordered for cancellation safety: region
// state repairs are idempotent (a retry re-applies them), and the pair cache
// is only touched after the rescore completed without error.
func (da *DeltaAuditor) incremental(ctx context.Context, snap *partition.Partitioning, dirty []int) (*Result, DeltaStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, DeltaStats{}, err
	}
	cfg := &da.cfg
	st := DeltaStats{DirtyRegions: len(dirty)}

	// A changed eligible roster remaps every position, so caches are rebuilt
	// wholesale. Only a dirty region can have changed size, so the roster
	// changed exactly when a dirty region crossed the eligibility floor.
	rebuilt := false
	for _, lbl := range dirty {
		if _, in := da.posOf[lbl]; in != (snap.Regions[lbl].N >= cfg.MinRegionSize) {
			rebuilt = true
			break
		}
	}
	if rebuilt {
		if err := da.rebuildState(ctx, snap, snap.NonEmpty(cfg.MinRegionSize)); err != nil {
			return nil, DeltaStats{}, err
		}
	}
	run := da.run

	if len(da.isDirty) < len(snap.Regions) {
		da.isDirty = make([]bool, len(snap.Regions))
	}
	isDirty := da.isDirty
	defer clearLabels(isDirty, dirty)
	dirtyPos := make([]int, 0, len(dirty))
	for _, lbl := range dirty {
		isDirty[lbl] = true
		if pos, ok := da.posOf[lbl]; ok {
			dirtyPos = append(dirtyPos, pos)
		}
	}
	sort.Ints(dirtyPos)
	if !rebuilt {
		da.repairRegions(dirtyPos)
	}

	// Re-score the dirty neighborhood. Each dirty position probes its own
	// window in both directions; a pair with two dirty endpoints is scored
	// once, at the smaller position (skipping it at the larger is sound —
	// either window is an individually sufficient rejection certificate).
	// Positions are normalized ascending before scoring so every pair is
	// scored in the cold sweep's orientation.
	var sc scratch
	var tally pairTally
	preGated := run.preGated()
	rescored := da.rescored[:0]
	sinceCheck := 0
	var ctxErr error
	for _, d := range dirtyPos {
		probe := d
		run.plan.forEachPartner(probe, 0, len(run.regions), func(j int) bool {
			sinceCheck++
			if sinceCheck >= cancelCheckInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
			}
			if j < probe && isDirty[run.regions[j].Index] {
				return true // already scored while probing j
			}
			st.WindowCandidates++
			ii, jj := probe, j
			if ii > jj {
				ii, jj = jj, ii
			}
			if run.plan.indexed && run.summaryReject(ii, jj, &tally) {
				st.BoundsRejections++
				return true
			}
			st.RescoredPairs++
			rescored, _ = run.auditPair(ii, jj, &tally, &sc, rescored, true, preGated)
			return true
		})
		if ctxErr != nil {
			return nil, DeltaStats{}, ctxErr
		}
	}
	da.rescored = rescored

	// Commit: drop every cached pair touching a dirty region (by label) and
	// store the rescored candidates. Every rescored pair has a dirty
	// endpoint, so the two steps cannot collide.
	reused := da.cache.size()
	st.RescoredCandidates = len(rescored)
	st.InvalidatedPairs = da.cache.commit(dirty, rescored)
	st.ReusedPairs = reused - st.InvalidatedPairs

	res := &Result{
		EligibleRegions: len(da.eligible),
		GlobalRate:      snap.GlobalRate(),
		Candidates:      da.cache.size(),
		Pairs:           da.cache.flagged(cfg),
	}
	return res, st, nil
}

// clearLabels unsets the given labels' flags.
func clearLabels(flags []bool, labels []int) {
	for _, l := range labels {
		flags[l] = false
	}
}

// repairRegions re-prepares the regions at the dirty positions (ascending)
// in place and repairs the summary index and the candidate plan around
// them. While the envelope holds, only the dirty probes' windows can have
// moved, so the plan is repaired; a moved envelope can shift every window,
// so the plan is rebuilt, its provider chosen afresh.
func (da *DeltaAuditor) repairRegions(dirtyPos []int) {
	run := da.run
	var env partition.SummaryStats
	if run.ix != nil {
		env = run.ix.Stats
	}
	for _, pos := range dirtyPos {
		r := run.regions[pos]
		run.sim.repair(pos, r)
		run.diss.repair(pos, r)
		run.repairLogLik(pos, r)
		if run.ix != nil {
			run.ix.UpdateRegion(pos, r)
		}
	}
	if run.ix == nil {
		return
	}
	if run.ix.Stats != env { //lint:floateq-ok exact envelope identity
		run.plan = buildCandidatePlan(&da.cfg, run.ix)
		return
	}
	run.plan.repair(run.ix, dirtyPos)
}
