package core

import (
	"context"
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
//     forEachPartnerAll — covers every pair the cold sweep could emit with a
//     dirty endpoint; window-rejected pairs are exact-gate failures and
//     correctly stay out of the cache.
//   - Order-free flagging: per-pair Alpha is a value threshold and
//     Benjamini–Hochberg's rejection mask depends only on the p-value
//     multiset, so Result.Pairs can be reassembled from a cache filled
//     across many incremental passes (flagPairs). The cache is kept in the
//     canonical lessUnfair order, so reassembly is a filter, not a sort.
//
// The Monte-Carlo null store persists across audits (its p-values are
// key-seeded, bit-identical whatever the store's fill state), so unchanged
// count signatures keep their filled samples across deltas. Cached
// unflagged candidates carry the store's canonical above-cut p-value, which
// no later pass can flag, exactly as the cold sweep's would.
//
// A DeltaAuditor is not safe for concurrent use; callers serialize updates
// (through the DeltaPartitioning) and Audit calls. The incremental pass is
// single-goroutine — it re-scores only the dirty neighborhood, then makes one
// linear, sort-free pass over the ordered pair cache — while fallback full
// sweeps use the batch engine's parallelism under Config.Workers.
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
	useIndex bool         // the plan under cfg is indexed (static per Config)

	// candidates caches every pair that passed the exact gate cascade, in
	// canonical lessUnfair order. Pairs name their regions by label, which
	// survives eligibility churn (churn only remaps positions). spare is the
	// buffer the next commit merges into; the two swap on every commit.
	candidates []UnfairPair
	spare      []UnfairPair
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
	col.Event("audit.delta.finish", "", "delta audit finished", map[string]any{
		"full_sweep":    st.FullSweep,
		"dirty_regions": st.DirtyRegions,
		"invalidated":   st.InvalidatedPairs,
		"reused":        st.ReusedPairs,
		"rescored":      st.RescoredPairs,
		"pairs_flagged": len(res.Pairs),
		"seconds":       elapsed.Seconds(),
	})
	return res, st, nil
}

// fullSweep runs the batch engine with the keepAll hook and adopts its state:
// eligible positions, prepared caches, summary index, plan, and the complete
// candidate set, sorted once into the cache's canonical order.
func (da *DeltaAuditor) fullSweep(ctx context.Context, snap *partition.Partitioning, dirty []int) (*Result, DeltaStats, error) {
	res, run, cands, err := auditEngine(ctx, snap, da.cfg, auditHooks{keepAll: true, nulls: da.nulls})
	if err != nil {
		return nil, DeltaStats{}, err
	}
	st := DeltaStats{
		FullSweep:          true,
		DirtyRegions:       len(dirty),
		InvalidatedPairs:   len(da.candidates),
		RescoredCandidates: len(cands),
	}
	old := da.run
	da.adopt(run)
	recycleRunner(old)
	sortUnfairPairs(cands, da.cfg.workers())
	da.candidates, da.spare = cands, da.candidates[:0]
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
	da.useIndex = run.plan.indexed
}

// rebuildState reassembles positions, prepared caches, and the summary index
// for a changed eligible set. The pair cache is untouched: its pairs carry
// labels, not positions, and which cached pairs must go is decided by dirty
// labels. Region preparation here is cheap relative to a sweep — the
// delta partition layer hands out pre-sorted samples.
func (da *DeltaAuditor) rebuildState(snap *partition.Partitioning, newEligible []int) {
	regions := make([]*partition.Region, len(newEligible))
	for i, idx := range newEligible {
		regions[i] = &snap.Regions[idx]
	}
	run := newAuditRunner(da.cfg, regions)
	run.nulls = da.nulls
	if da.cfg.CandidateGen != CandidateDense {
		run.buildIndex()
	}
	run.sim.beginPrepare(regions)
	run.diss.beginPrepare(regions)
	for i, r := range regions {
		run.sim.prepare(i, r)
		run.diss.prepare(i, r)
	}
	run.fillLogLik()
	old := da.run
	da.adopt(run)
	recycleRunner(old)
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

	// Repair region-level state. A changed eligible roster remaps every
	// position, so caches are rebuilt wholesale; otherwise only the dirty
	// positions are re-prepared and the summary index repaired in place.
	newEligible := snap.NonEmpty(cfg.MinRegionSize)
	if !equalInts(newEligible, da.eligible) {
		da.rebuildState(snap, newEligible)
	} else {
		for _, lbl := range dirty {
			pos, ok := da.posOf[lbl]
			if !ok {
				continue // dirty but ineligible: nothing cached to repair
			}
			r := da.run.regions[pos]
			da.run.sim.repair(pos, r)
			da.run.diss.repair(pos, r)
			da.run.repairLogLik(pos, r)
			if da.run.ix != nil {
				da.run.ix.UpdateRegion(pos, r)
			}
		}
	}
	run := da.run
	if da.useIndex {
		// Windows derive from summaries and the envelope, both just updated;
		// rebuild the plan so dirty probes enumerate against current state.
		run.plan = buildCandidatePlan(cfg, run.ix, 1)
	}

	// Re-score the dirty neighborhood. Each dirty position probes its own
	// window in both directions; a pair with two dirty endpoints is scored
	// once, at the smaller position (skipping it at the larger is sound —
	// either window is an individually sufficient rejection certificate).
	// Positions are normalized ascending before scoring so every pair is
	// scored in the cold sweep's orientation.
	isDirty := make([]bool, len(snap.Regions)) // by region label
	dirtyPos := make([]int, 0, len(dirty))
	for _, lbl := range dirty {
		isDirty[lbl] = true
		if pos, ok := da.posOf[lbl]; ok {
			dirtyPos = append(dirtyPos, pos)
		}
	}
	sort.Ints(dirtyPos)

	var sc scratch
	var tally pairTally
	preGated := run.preGated()
	var rescored []UnfairPair
	sinceCheck := 0
	var ctxErr error
	for _, d := range dirtyPos {
		probe := d
		run.plan.forEachPartnerAll(probe, len(run.regions), func(j int) bool {
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
			if pr, isCand := run.auditPair(ii, jj, &tally, &sc, true, preGated); isCand {
				rescored = append(rescored, pr)
			}
			return true
		})
		if ctxErr != nil {
			return nil, DeltaStats{}, ctxErr
		}
	}

	// Commit: one merge pass drops every cached pair touching a dirty region
	// (by label) and splices in the rescored candidates, keeping the cache
	// in canonical order. Every rescored pair has a dirty endpoint, so the
	// two steps cannot collide.
	sortUnfairPairs(rescored, 1)
	merged, dropped := spliceUnfairPairs(da.spare[:0], da.candidates, rescored, isDirty)
	st.InvalidatedPairs = dropped
	st.ReusedPairs = len(da.candidates) - dropped
	st.RescoredCandidates = len(rescored)
	da.candidates, da.spare = merged, da.candidates

	// Reassemble the result: the same order-free flagging as the batch
	// engine (Alpha or Benjamini–Hochberg), filtered out of the ordered
	// cache into a fresh slice the caller owns.
	res := &Result{
		EligibleRegions: len(da.eligible),
		GlobalRate:      snap.GlobalRate(),
		Candidates:      len(da.candidates),
		Pairs:           flagPairs(cfg, cfg.FDR > 0, []UnfairPair{}, da.candidates, 1),
	}
	return res, st, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
