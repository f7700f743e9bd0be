package verify

import (
	"fmt"
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/stats"
)

// engineCase is one point in the engine-configuration matrix the metamorphic
// oracles sweep: worker count × candidate plan. The paper's robustness claim
// is about the audit's *answer*, so the answer must not depend on any of
// these execution choices.
type engineCase struct {
	name    string
	workers int
	gen     core.CandidateGen
}

func engineCases() []engineCase {
	var out []engineCase
	for _, w := range []int{1, 2, 4, 8} {
		for _, g := range []struct {
			name string
			gen  core.CandidateGen
		}{{"dense", core.CandidateDense}, {"indexed", core.CandidateIndexed}} {
			out = append(out, engineCase{
				name:    fmt.Sprintf("w%d-%s-cache", w, g.name),
				workers: w,
				gen:     g.gen,
			})
		}
	}
	return out
}

// metamorphicConfig is the audit configuration the oracles run under: the
// paper defaults with a reduced Monte-Carlo budget (the oracles run dozens of
// audits) and a region floor matched to the scenario's density.
//
// Every candidate takes the paper's Monte-Carlo p-value, and Alpha =
// 1/(MCWorlds+1) flags a pair iff none of its null draws reaches its tau.
// Exact set-invariance needs no further tuning: a null sample is a pure
// function of (seed, count signature), and every engine configuration and
// every perturbation TestMetamorphic applies keeps each region's counts, so
// each candidate meets the same tau against the same sample every time.
// A regression that perturbs any gate, aggregate, or p-value path still
// moves the flagged set.
func metamorphicConfig(ec engineCase) core.Config {
	cfg := core.DefaultConfig()
	cfg.MCWorlds = 199
	cfg.Alpha = 0.005 // = 1/(MCWorlds+1), the smallest achievable p
	cfg.MinRegionSize = 60
	cfg.Seed = 7
	cfg.Workers = ec.workers
	cfg.CandidateGen = ec.gen
	return cfg
}

func runAudit(t *testing.T, s *Scenario, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.Audit(s.Partition(), cfg)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	return res
}

// describeFlagged renders a flagged set for failure messages.
func describeFlagged(pairs []PairKey) string {
	return fmt.Sprintf("%d pairs %v", len(pairs), pairs)
}

// TestMetamorphic is the MAUP oracle: one seeded scenario, audited under
// every engine configuration and under every audit-preserving perturbation,
// must flag the same (relabel-normalized) pair set every time. A change in
// the set under any cell of this matrix is a correctness regression in some
// fast path, not a tuning matter.
func TestMetamorphic(t *testing.T) {
	base := NewScenario(stats.NewRNG(42), DefaultScenarioConfig())

	prng := stats.NewRNG(43)
	relabeled, relabelBack := base.Relabeled(RandomPermutation(prng, base.NumCells))
	gapped, gapBack := base.WithEmptyGaps(3)
	perturbations := []struct {
		name    string
		scen    *Scenario
		relabel func(int) int
	}{
		{"relabel", relabeled, relabelBack},
		{"empty-gaps", gapped, gapBack},
		{"record-shuffle", base.ShuffledRecords(prng), nil},
		{"jitter", base.Jittered(prng), nil},
		{"split-remerge", base.SplitRemerged(), nil},
		{"protected-swap", base.ProtectedSwapped(), nil},
	}

	var reference []PairKey
	for _, ec := range engineCases() {
		t.Run(ec.name, func(t *testing.T) {
			cfg := metamorphicConfig(ec)
			res := runAudit(t, base, cfg)
			flagged := FlaggedSet(res, nil)
			if len(flagged) == 0 {
				t.Fatalf("scenario flags no pairs (candidates=%d, eligible=%d); the oracle is vacuous — regenerate the scenario",
					res.Candidates, res.EligibleRegions)
			}
			if res.Candidates <= len(flagged) {
				t.Errorf("every candidate is flagged (%d of %d); the oracle cannot detect spurious flags", len(flagged), res.Candidates)
			}
			if reference == nil {
				reference = flagged
				t.Logf("reference flagged set: %s (candidates=%d, eligible=%d)",
					describeFlagged(flagged), res.Candidates, res.EligibleRegions)
			} else if !EqualFlagged(reference, flagged) {
				t.Errorf("flagged set differs across engine configs:\n  reference: %s\n  %s: %s",
					describeFlagged(reference), ec.name, describeFlagged(flagged))
			}
			for _, p := range perturbations {
				pres := runAudit(t, p.scen, cfg)
				pf := FlaggedSet(pres, p.relabel)
				if !EqualFlagged(flagged, pf) {
					t.Errorf("%s: flagged set not invariant under %s:\n  base:      %s\n  perturbed: %s",
						ec.name, p.name, describeFlagged(flagged), describeFlagged(pf))
				}
			}
		})
	}
}

// TestDirectionalGapWidening is the monotonicity oracle: making a flagged
// pair's disparity strictly worse — flipping negative outcomes to positive on
// the advantaged side — must strictly raise the pair's likelihood-ratio
// statistic and must not unflag it at a fixed seed, under any engine
// configuration. The widening changes the pair's counts, so its p-value
// comes from a fresh null sample; the tau check is the part no Monte-Carlo
// draw can move.
func TestDirectionalGapWidening(t *testing.T) {
	base := NewScenario(stats.NewRNG(42), DefaultScenarioConfig())
	for _, ec := range engineCases() {
		t.Run(ec.name, func(t *testing.T) {
			cfg := metamorphicConfig(ec)
			res := runAudit(t, base, cfg)
			if len(res.Pairs) == 0 {
				t.Fatal("scenario flags no pairs; the oracle is vacuous")
			}
			top := res.Pairs[0] // most unfair pair; J is the advantaged side
			part := base.Partition()
			widened := base.WithWidenedGap(top.J, part.Regions[top.J].N/10)
			wres := runAudit(t, widened, cfg)
			want := PairKey{A: top.I, B: top.J}
			if want.A > want.B {
				want.A, want.B = want.B, want.A
			}
			for _, pr := range wres.Pairs {
				k := PairKey{A: pr.I, B: pr.J}
				if k.A > k.B {
					k.A, k.B = k.B, k.A
				}
				if k != want {
					continue
				}
				if !(pr.Tau > top.Tau) {
					t.Errorf("widening the outcome gap of pair (%d,%d) moved tau %v -> %v, want a strict rise", top.I, top.J, top.Tau, pr.Tau)
				}
				return
			}
			t.Errorf("widening the outcome gap of flagged pair (%d,%d) unflagged it; flagged after widening: %s",
				top.I, top.J, describeFlagged(FlaggedSet(wres, nil)))
		})
	}
}
