package core

import (
	"context"
	"fmt"
	"sort"

	"lcsf/internal/partition"
)

// This file is the audit's scale-out seam: AuditShard runs the engine over
// one contiguous slice of the candidate-pair space's outer rows and returns
// every candidate it scored, and MergeShards reassembles the exact batch
// Result from a complete shard set. The split is byte-identical to a single
// AuditContext call by construction:
//
//   - Pair locality. Each unordered pair (i, j) is enumerated from exactly
//     one outer row (its probe row), so a partition of the outer rows is a
//     partition of the pair space — no pair is scored twice or dropped.
//   - Per-pair determinism. Every per-pair field is a pure function of
//     (pair identity, Config, partitioning): null samples are seeded from
//     their count signature (so a shard-private null store answers
//     bit-identically to the batch run's store), and the gate cascade reads
//     only the two regions' data.
//   - Order-free flagging. finalizePairs flags by value thresholds alone —
//     Alpha per pair, or Benjamini–Hochberg over the p-value multiset — and
//     then fixes a strict total order, so the merged result does not depend
//     on shard boundaries or arrival order.
//
// TestAuditShardMergeMatchesBatch pins the equivalence across shard counts,
// candidate-generation modes, and FDR settings.

// ShardResult is one shard's share of an audit: every candidate pair whose
// probe row falls in the shard's slice of the outer-row space, plus the
// result-level fields every shard agrees on. A candidate at or below the
// flag cut (Alpha, or FDR's q) carries exact fields. One above it can never
// be flagged: its P is the null store's canonical above-cut value, which
// flags alike, and its scores are zero.
type ShardResult struct {
	// Shard and Shards identify the slice: this result covers outer-row
	// slots [Shard*n/Shards, (Shard+1)*n/Shards) of an n-row audit.
	Shard, Shards int
	// EligibleRegions and GlobalRate are audit-level values (identical
	// across shards); MergeShards copies them into the merged Result.
	EligibleRegions int
	GlobalRate      float64
	// Candidates holds every pair that passed the gate cascade in this
	// shard's rows — the unfiltered material finalizePairs flags from, its
	// length the shard's share of the candidate count.
	Candidates []UnfairPair
}

// AuditShard runs the audit engine restricted to shard shard of shards
// equal slices of the outer-row space and returns the shard's candidates.
// The union of a complete shard set reproduces the batch audit exactly (see
// MergeShards). Each call is self-contained — it builds its own prepared
// caches and null store — so shards can run concurrently, in any order, on
// any worker, or (behind a remote runner) on another process entirely.
func AuditShard(ctx context.Context, p *partition.Partitioning, cfg Config, shard, shards int) (*ShardResult, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: shards %d < 1", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("core: shard %d outside [0, %d)", shard, shards)
	}
	res, run, candidates, err := auditEngine(ctx, p, cfg, auditHooks{
		keepAll: true,
		shard:   shard,
		shards:  shards,
	})
	run.release()
	if err != nil {
		return nil, err
	}
	return &ShardResult{
		Shard:           shard,
		Shards:          shards,
		EligibleRegions: res.EligibleRegions,
		GlobalRate:      res.GlobalRate,
		Candidates:      candidates,
	}, nil
}

// MergeShards reassembles the batch Result from a complete shard set: it
// concatenates every shard's candidates, applies the same value-threshold
// flagging the batch engine applies (Alpha, or Benjamini–Hochberg under
// cfg.FDR), and fixes the canonical order. The input may arrive in any
// order; the set must cover every shard index of one shard count exactly
// once.
func MergeShards(cfg Config, shards []*ShardResult) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: MergeShards of an empty shard set")
	}
	for _, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("core: MergeShards with a nil shard")
		}
	}
	sorted := append([]*ShardResult(nil), shards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	total := 0
	for i, sh := range sorted {
		if sh.Shards != len(sorted) {
			return nil, fmt.Errorf("core: shard %d/%d merged into a set of %d", sh.Shard, sh.Shards, len(sorted))
		}
		if sh.Shard != i {
			return nil, fmt.Errorf("core: shard set misses index %d (got %d)", i, sh.Shard)
		}
		total += len(sh.Candidates)
	}
	res := &Result{
		EligibleRegions: sorted[0].EligibleRegions,
		GlobalRate:      sorted[0].GlobalRate,
		Candidates:      total,
	}
	all := make([]UnfairPair, 0, total)
	for _, sh := range sorted {
		all = append(all, sh.Candidates...)
	}
	res.Pairs = finalizePairs(&cfg, all, total)
	return res, nil
}
