// Package verify is the repository's standing correctness harness: the
// executable form of the contracts every performance PR must preserve.
//
// It has three layers, each aimed at a different class of regression:
//
//   - Differential fuzzing (fuzz_test.go): the stats kernels behind the
//     audit's hot paths — the sorted-merge Mann–Whitney and
//     Kolmogorov–Smirnov kernels, moment-based Welch, the Monte-Carlo null
//     store, the normal CDF/quantile pair, and Benjamini–Hochberg — are
//     fuzzed against naive reference implementations that share none of
//     their optimizations. Seed corpora live under testdata/fuzz; `make
//     fuzz-smoke` gives every target a bounded budget in CI.
//
//   - Metamorphic MAUP oracles (metamorphic_test.go): the paper's headline
//     robustness claim, tested as a property. A seeded scenario generator
//     (scenario.go, built on internal/census + internal/partition) applies
//     audit-preserving perturbations — region relabeling, record-order
//     shuffles, split-and-remerge label compositions, within-cell coordinate
//     jitter, protected-group complement — and the flagged pair set (modulo
//     relabeling) must be invariant, across worker counts, dense/indexed
//     and candidate plans.
//
//   - Golden end-to-end audits (golden_test.go): canonical scenarios whose
//     full audit report — flagged pairs, p-values, schedule-independent
//     funnel counters — is snapshotted byte-for-byte under testdata/golden
//     and regenerated only under `go test ./internal/verify -update`.
//
// Everything in this package is deterministic: generators take an explicit
// *stats.RNG (enforced by the nodeterminism analyzer, whose scope includes
// this package), and no oracle reads the wall clock.
package verify

import (
	"sort"

	"lcsf/internal/core"
)

// PairKey identifies one flagged pair by its two region labels, order-free
// (A < B). It deliberately drops scores and p-values: the metamorphic
// oracles compare which pairs are flagged, not the floating-point trail
// behind them.
type PairKey struct {
	A, B int
}

// FlaggedSet extracts the relabel-normalized flagged pair set of an audit
// result: each pair's region labels are mapped through relabel (nil means
// identity), normalized to A < B, and the set is returned sorted
// lexicographically — a canonical form two audits can be compared by.
func FlaggedSet(res *core.Result, relabel func(int) int) []PairKey {
	out := make([]PairKey, 0, len(res.Pairs))
	for _, pr := range res.Pairs {
		a, b := pr.I, pr.J
		if relabel != nil {
			a, b = relabel(a), relabel(b)
		}
		if a > b {
			a, b = b, a
		}
		out = append(out, PairKey{A: a, B: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// EqualFlagged reports whether two canonical flagged sets (as returned by
// FlaggedSet) are identical.
func EqualFlagged(a, b []PairKey) bool {
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
