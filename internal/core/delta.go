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
//     across many incremental passes (finalizePairs).
//
// The Monte-Carlo null store persists across audits (its p-values are
// key-seeded, bit-identical whatever the store's fill state), so unchanged
// count signatures keep their filled samples across deltas.
//
// A DeltaAuditor is not safe for concurrent use; callers serialize updates
// (through the DeltaPartitioning) and Audit calls. The incremental rescore is
// single-goroutine — its work is proportional to the dirty neighborhood, not
// the region count — while fallback full sweeps use the batch engine's
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
	useIndex bool         // the plan under cfg is indexed (static per Config)

	// candidates caches every pair that passed the exact gate cascade, keyed
	// by normalized region labels — label keys survive eligibility churn,
	// which only remaps positions.
	candidates map[pairLabelKey]UnfairPair
}

// pairLabelKey identifies a candidate pair by region labels, A < B.
type pairLabelKey struct{ a, b int }

func labelKey(pr UnfairPair) pairLabelKey {
	if pr.I < pr.J {
		return pairLabelKey{a: pr.I, b: pr.J}
	}
	return pairLabelKey{a: pr.J, b: pr.I}
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	da := &DeltaAuditor{
		cfg:        cfg,
		dp:         dp,
		candidates: make(map[pairLabelKey]UnfairPair),
		nulls:      stats.NewNullStore(cfg.Seed, cfg.MCWorlds),
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
// candidate set.
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
	da.candidates = make(map[pairLabelKey]UnfairPair, len(cands))
	for _, pr := range cands {
		da.candidates[labelKey(pr)] = pr
	}
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
// for a changed eligible set. The pair cache is untouched: its label keys
// remain valid, and which cached pairs must go is decided by dirty labels,
// not positions. Region preparation here is cheap relative to a sweep — the
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
	hint := run.pairHint()
	run.sim.finishPrepare(hint)
	run.diss.finishPrepare(hint)
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
	dirtySet := make(map[int]bool, len(dirty))
	dirtyPos := make([]int, 0, len(dirty))
	for _, lbl := range dirty {
		dirtySet[lbl] = true
		if pos, ok := da.posOf[lbl]; ok {
			dirtyPos = append(dirtyPos, pos)
		}
	}
	sort.Ints(dirtyPos)
	isDirtyPos := make([]bool, len(run.regions))
	for _, p := range dirtyPos {
		isDirtyPos[p] = true
	}

	var sc Scratch
	var tally pairTally
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
			if isDirtyPos[j] && j < probe {
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
			if pr, isCand := run.auditPair(ii, jj, &tally, &sc); isCand {
				rescored = append(rescored, pr)
			}
			return true
		})
		if ctxErr != nil {
			return nil, DeltaStats{}, ctxErr
		}
	}

	// Commit: drop every cached pair touching a dirty region (by label), then
	// install the rescored candidates. Every rescored pair has a dirty
	// endpoint, so the two steps cannot collide.
	for key := range da.candidates {
		if dirtySet[key.a] || dirtySet[key.b] {
			delete(da.candidates, key)
			st.InvalidatedPairs++
		}
	}
	st.ReusedPairs = len(da.candidates)
	for _, pr := range rescored {
		da.candidates[labelKey(pr)] = pr
	}
	st.RescoredCandidates = len(rescored)

	// Reassemble the result from the cache; finalizePairs applies the same
	// order-free flagging (Alpha or Benjamini–Hochberg) and canonical sort
	// as the batch engine.
	res := &Result{
		EligibleRegions: len(da.eligible),
		GlobalRate:      snap.GlobalRate(),
		Candidates:      len(da.candidates),
	}
	pairs := make([]UnfairPair, 0, len(da.candidates))
	for _, pr := range da.candidates {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool { return lessUnfair(pairs[i], pairs[j]) })
	res.Pairs = finalizePairs(cfg, cfg.FDR > 0, pairs)
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
