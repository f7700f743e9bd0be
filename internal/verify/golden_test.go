package verify

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"lcsf/internal/core"
	"lcsf/internal/obs"
	"lcsf/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden snapshots under testdata/golden")

// The golden layer snapshots three canonical audits — a small and a medium
// scenario, and the small one's whole-thousand income variant — as JSON files under testdata/golden. The snapshot holds the full
// flagged-pair report at full float precision plus every funnel counter that
// is schedule-independent (gate tallies, candidate counts, Monte-Carlo world
// totals, null-cache misses — but not hits/timings, which depend on worker
// interleaving). Any optimization PR that changes a byte here changed the
// audit's answer, not just its speed. Regenerate deliberately with:
//
//	go test ./internal/verify -run TestGolden -update
//
// and justify the diff in review.

// goldenFloat renders a float64 with full round-trip precision so snapshots
// are byte-stable and lossless.
func goldenFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type goldenPair struct {
	I, J         int
	Tau          string
	P            string
	SimScore     string
	DissScore    string
	RateI, RateJ string
	SharedI      string
	SharedJ      string
}

// goldenFunnel holds the schedule-independent counters of one audit run.
type goldenFunnel struct {
	PairsScanned     int64
	DissRejections   int64
	EtaFastPath      int64
	SimRejections    int64
	Candidates       int64
	PrescreenSkips   int64
	MCWorlds         int64
	Flagged          int64
	NullCacheMisses  int64
	IndexPairsTotal  int64
	WindowCandidates int64
	BoundsRejections int64
}

type goldenReport struct {
	Scenario        string
	EligibleRegions int
	GlobalRate      string
	Pairs           []goldenPair
	Dense           goldenFunnel
	Indexed         goldenFunnel
}

func collectFunnel(s obs.Snapshot) goldenFunnel {
	return goldenFunnel{
		PairsScanned:     s.Counter(obs.MAuditPairsScanned),
		DissRejections:   s.Counter(obs.MAuditDissRejections),
		EtaFastPath:      s.Counter(obs.MAuditEtaFastPath),
		SimRejections:    s.Counter(obs.MAuditSimRejections),
		Candidates:       s.Counter(obs.MAuditCandidates),
		PrescreenSkips:   s.Counter(obs.MAuditPrescreenSkips),
		MCWorlds:         s.Counter(obs.MAuditMCWorlds),
		Flagged:          s.Counter(obs.MAuditFlagged),
		NullCacheMisses:  s.Counter(obs.MMCNullCacheMisses),
		IndexPairsTotal:  s.Counter(obs.MAuditIndexPairsTotal),
		WindowCandidates: s.Counter(obs.MAuditIndexWindowCandidates),
		BoundsRejections: s.Counter(obs.MAuditIndexBoundsRejections),
	}
}

// goldenCase defines one canonical scenario/config pair.
type goldenCase struct {
	name string
	seed uint64
	scfg ScenarioConfig
	tied bool // audit the scenario's WholeThousandIncomes variant
	cfg  func() core.Config
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "small",
			seed: 2024,
			scfg: DefaultScenarioConfig(),
			cfg: func() core.Config {
				cfg := core.DefaultConfig()
				cfg.MCWorlds = 199
				cfg.MinRegionSize = 60
				cfg.Seed = 7
				return cfg
			},
		},
		{
			name: "medium",
			seed: 77,
			scfg: ScenarioConfig{
				Tracts:      2000,
				Individuals: 40000,
				Cols:        16,
				Rows:        10,
				Bias:        0.3,
				SampleCap:   4096,
			},
			cfg: func() core.Config {
				cfg := core.DefaultConfig()
				cfg.MCWorlds = 299
				cfg.MinRegionSize = 100
				cfg.Seed = 11
				return cfg
			},
		},
		{
			name: "tied",
			seed: 2024,
			scfg: DefaultScenarioConfig(),
			tied: true,
			cfg: func() core.Config {
				cfg := core.DefaultConfig()
				cfg.MCWorlds = 199
				cfg.MinRegionSize = 60
				cfg.Seed = 7
				return cfg
			},
		},
	}
}

// goldenAudit runs the case under one candidate plan with a private collector
// and returns the result with its funnel.
func goldenAudit(t *testing.T, s *Scenario, cfg core.Config, gen core.CandidateGen) (*core.Result, goldenFunnel) {
	t.Helper()
	col := obs.NewCollector(64)
	cfg.CandidateGen = gen
	cfg.Collector = col
	res, err := core.Audit(s.Partition(), cfg)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	return res, collectFunnel(col.Snapshot())
}

func buildReport(t *testing.T, gc goldenCase) goldenReport {
	t.Helper()
	s := NewScenario(stats.NewRNG(gc.seed), gc.scfg)
	if gc.tied {
		s = s.WholeThousandIncomes()
	}

	dres, dfunnel := goldenAudit(t, s, gc.cfg(), core.CandidateDense)
	ires, ifunnel := goldenAudit(t, s, gc.cfg(), core.CandidateIndexed)

	// The dense/indexed contract is stronger than set equality: the full
	// report must be bit-identical, so the snapshot only needs one copy.
	if len(dres.Pairs) != len(ires.Pairs) {
		t.Fatalf("dense flags %d pairs, indexed %d", len(dres.Pairs), len(ires.Pairs))
	}
	for i := range dres.Pairs {
		if dres.Pairs[i] != ires.Pairs[i] {
			t.Fatalf("pair %d differs dense vs indexed:\n  dense:   %+v\n  indexed: %+v", i, dres.Pairs[i], ires.Pairs[i])
		}
	}

	report := goldenReport{
		Scenario:        gc.name,
		EligibleRegions: dres.EligibleRegions,
		GlobalRate:      goldenFloat(dres.GlobalRate),
		Dense:           dfunnel,
		Indexed:         ifunnel,
		Pairs:           make([]goldenPair, 0, len(dres.Pairs)),
	}
	for _, pr := range dres.Pairs {
		report.Pairs = append(report.Pairs, goldenPair{
			I: pr.I, J: pr.J,
			Tau:       goldenFloat(pr.Tau),
			P:         goldenFloat(pr.P),
			SimScore:  goldenFloat(pr.SimScore),
			DissScore: goldenFloat(pr.DissScore),
			RateI:     goldenFloat(pr.RateI),
			RateJ:     goldenFloat(pr.RateJ),
			SharedI:   goldenFloat(pr.SharedI),
			SharedJ:   goldenFloat(pr.SharedJ),
		})
	}
	return report
}

func TestGoldenAudits(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			report := buildReport(t, gc)
			got, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", "golden", gc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				t.Logf("updated %s (%d pairs)", path, len(report.Pairs))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("audit report drifted from golden snapshot %s.\nIf the change is intended, regenerate with:\n  go test ./internal/verify -run TestGolden -update\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// TestGoldenByteStability reruns the small golden case and demands the exact
// bytes of the first run — the in-process form of the "byte-stable across two
// consecutive runs" guarantee the snapshots rest on.
func TestGoldenByteStability(t *testing.T) {
	gc := goldenCases()[0]
	first, err := json.Marshal(buildReport(t, gc))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	second, err := json.Marshal(buildReport(t, gc))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("two consecutive audits of the same golden case produced different reports:\n%s\nvs\n%s", first, second)
	}
}
