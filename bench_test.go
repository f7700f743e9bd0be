package lcsf_test

// The benchmark harness: one benchmark per paper table and figure (measuring
// the cost of regenerating that artifact on the synthetic substrate), plus
// ablation benchmarks for the design choices DESIGN.md calls out.
//
// The full-size tables are regenerated by `go run ./cmd/lcsf-bench`; the
// benchmarks here exercise the same code paths at a size that keeps
// `go test -bench=.` to a few minutes.

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"lcsf"
	"lcsf/internal/census"
	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/report"
	"lcsf/internal/stats"
	"lcsf/internal/table"
)

// benchFixture holds a bench-scale universe: one lender at ~1/4 paper
// volume, audited at 50x25 (1/4 of the paper's cells).
type benchFixture struct {
	model *lcsf.CensusModel
	obs   []lcsf.Observation
	food  []lcsf.Observation
	part  *lcsf.Partitioning
}

var (
	fixtureOnce sync.Once
	fixture     benchFixture
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		fixture.model = lcsf.GenerateCensus(lcsf.CensusConfig{NumTracts: 4000, Seed: 2020})
		recs := lcsf.GenerateMortgages(fixture.model, lcsf.Lender{
			Name: "Bench Bank", Decisioned: 60000, Bias: 0.11, Seed: 101,
		})
		fixture.obs = lcsf.MortgageObservations(recs)
		places := lcsf.GeneratePlaces(fixture.model, lcsf.POIConfig{
			NumFastFood: 30000, NumGrocery: 12000, Seed: 55,
		})
		fixture.food = lcsf.PlaceObservations(fixture.model, places, 56)
		fixture.part = lcsf.PartitionGrid(lcsf.ContinentalUS, 50, 25, fixture.obs,
			lcsf.PartitionOptions{Seed: 1})
	})
	return &fixture
}

// --- Per-table / per-figure benchmarks ------------------------------------

// BenchmarkTable1Mortgage measures one LC-SF mortgage audit — the unit of
// work behind every Table 1 row.
func BenchmarkTable1Mortgage(b *testing.B) {
	f := getFixture(b)
	cfg := lcsf.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lcsf.Audit(f.part, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) == 0 {
			b.Fatal("audit found nothing; fixture broken")
		}
	}
}

// BenchmarkDisparateImpact measures the Section 5.1.1 fair-ML baseline: a
// single pass computing the global disparate impact.
func BenchmarkDisparateImpact(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var prot, ref lcsf.GroupOutcomes
		for _, o := range f.obs {
			g := &ref
			if o.Protected {
				g = &prot
			}
			g.Total++
			if o.Positive {
				g.Positives++
			}
		}
		if di := lcsf.DisparateImpact(prot, ref); di <= 0 {
			b.Fatal("degenerate DI")
		}
	}
}

// BenchmarkSacharidisAudit measures the Section 5.1.2 spatial baseline on
// the same partitioning as the LC-SF audit.
func BenchmarkSacharidisAudit(b *testing.B) {
	f := getFixture(b)
	cfg := lcsf.DefaultSacharidisConfig()
	cfg.MinRegionSize = lcsf.DefaultConfig().MinRegionSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lcsf.SacharidisAudit(f.part, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Partitionings measures the multi-resolution sweep of Table
// 2 (three representative resolutions; the full 17-row table is regenerated
// by lcsf-bench).
func BenchmarkTable2Partitionings(b *testing.B) {
	f := getFixture(b)
	grids := []lcsf.GridSpec{{Cols: 10, Rows: 10}, {Cols: 40, Rows: 20}, {Cols: 100, Rows: 50}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := lcsf.Sweep(lcsf.ContinentalUS, f.obs, grids, lcsf.DefaultConfig(),
			lcsf.PartitionOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("sweep rows")
		}
	}
}

// BenchmarkTable3FoodAccess measures the food-access sweep of Table 3 at
// three representative resolutions.
func BenchmarkTable3FoodAccess(b *testing.B) {
	f := getFixture(b)
	grids := []lcsf.GridSpec{{Cols: 10, Rows: 10}, {Cols: 20, Rows: 20}, {Cols: 50, Rows: 50}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lcsf.Sweep(lcsf.ContinentalUS, f.food, grids, lcsf.EthicalConfig(),
			lcsf.PartitionOptions{Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4StatParity measures the Table 4 variant: the sweep with
// statistical parity as the dissimilarity metric.
func BenchmarkTable4StatParity(b *testing.B) {
	f := getFixture(b)
	cfg := lcsf.DefaultConfig()
	cfg.Dissimilarity = lcsf.StatParityDissimilarity{}
	cfg.Delta = 0.05
	grids := []lcsf.GridSpec{{Cols: 10, Rows: 10}, {Cols: 40, Rows: 20}, {Cols: 100, Rows: 50}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lcsf.Sweep(lcsf.ContinentalUS, f.obs, grids, cfg,
			lcsf.PartitionOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1MAUP measures the Figure 1 MAUP demonstration.
func BenchmarkFigure1MAUP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.RunFigure1MAUP(io.Discard); len(rows) != 4 {
			b.Fatal("figure rows")
		}
	}
}

// BenchmarkAdversarialRedraw measures the Figure 2 / Section 3.3 adversary
// experiment (eight audits over redrawn partitionings).
func BenchmarkAdversarialRedraw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure2Adversary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3TopPairs measures ranking and describing the top unfair
// pairs after an audit (Figures 3-5 share this path).
func BenchmarkFigure3TopPairs(b *testing.B) {
	f := getFixture(b)
	res, err := lcsf.Audit(f.part, lcsf.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := res.Top(5)
		set := res.UnfairRegionSet()
		if len(top) == 0 || len(set) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkAuditDense measures the audit's pair enumeration on the dense
// universe (every region eligible; see experiments.DenseAuditPartitioning)
// under both candidate-generation strategies: the exhaustive O(R²) sweep and
// the sorted-index window join that prunes pairs before the gate cascade.
// This is the audit's hot path at production partition resolutions;
// `make bench-smoke` runs both variants under -race — exercising the dynamic
// row scheduler, the interval-join candidate plan, and the Monte-Carlo null
// store — and cmd/lcsf-bench -audit-bench records the
// trajectory in BENCH_audit.json.
func BenchmarkAuditDense(b *testing.B) {
	for _, r := range []int{100, 400} {
		p := experiments.DenseAuditPartitioning(r, 7)
		b.Run(benchName("R", r), func(b *testing.B) {
			for _, gen := range []struct {
				name string
				mode lcsf.CandidateGen
			}{{"dense", lcsf.CandidateDense}, {"indexed", lcsf.CandidateIndexed}} {
				cfg := lcsf.DefaultConfig()
				cfg.CandidateGen = gen.mode
				b.Run(gen.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := lcsf.Audit(p, cfg); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkDeltaAudit measures one incremental re-audit on the R=400 dense
// universe: each iteration applies a 60-update single-region batch (30 of the
// region's observations deleted, then the same 30 reinserted) and re-audits
// through the delta auditor, failing if the pass falls back to a full sweep.
// After the loop, the last result must equal a cold audit of the current
// snapshot pair for pair. `make bench-smoke` runs it under -race, covering
// the incremental path's plan repair, rescoring, per-region cache commit
// and result assembly from the low set; cmd/lcsf-bench -delta-bench records
// the same workload in BENCH_audit.json.
func BenchmarkDeltaAudit(b *testing.B) {
	const regions, deletes = 400, 30
	obsv, grid := experiments.DenseAuditObservations(regions, 1)
	dp := partition.NewDeltaByGrid(grid, obsv, partition.Options{Seed: 1})
	da, err := core.NewDeltaAuditor(dp, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := da.Audit(ctx); err != nil {
		b.Fatal(err)
	}
	batch := make([]partition.Update, 2*deletes)
	var last *core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := (i % regions) * experiments.DenseAuditRegionPop
		for k, o := range obsv[first : first+deletes] {
			batch[k] = partition.Update{Op: partition.UpdateDelete, Obs: o}
			batch[deletes+k] = partition.Update{Op: partition.UpdateInsert, Obs: o}
		}
		if err := dp.Apply(batch); err != nil {
			b.Fatal(err)
		}
		res, st, err := da.Audit(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if st.FullSweep {
			b.Fatalf("iteration %d: a single-region batch fell back to a full sweep", i)
		}
		last = res
	}
	b.StopTimer()
	cold, err := core.AuditContext(ctx, dp.Snapshot(), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if last.Candidates != cold.Candidates || last.EligibleRegions != cold.EligibleRegions ||
		last.GlobalRate != cold.GlobalRate || len(last.Pairs) != len(cold.Pairs) { //lint:floateq-ok byte-identity-assertion
		b.Fatalf("delta result differs from a cold audit: candidates %d/%d, eligible %d/%d, rate %v/%v, flagged %d/%d",
			last.Candidates, cold.Candidates, last.EligibleRegions, cold.EligibleRegions,
			last.GlobalRate, cold.GlobalRate, len(last.Pairs), len(cold.Pairs))
	}
	for k := range cold.Pairs {
		if last.Pairs[k] != cold.Pairs[k] {
			b.Fatalf("delta pair %d differs from a cold audit:\n delta %+v\n cold  %+v", k, last.Pairs[k], cold.Pairs[k])
		}
	}
}

// scoreOnlyMetric embeds a PairMetric as a plain interface, hiding a
// built-in metric's concrete type so the audit finds no cached scoring path
// and scores every pair through Score — the pre-rank-cache behavior, kept
// benchable for the ablation below.
type scoreOnlyMetric struct{ lcsf.PairMetric }

// BenchmarkAuditDensePreparedVsFallback isolates the rank-cache win on the
// R=400 dense universe: the same audit with the stock metrics (prepared path:
// per-region sorted samples, rank indexes and shares built once, cached pair
// scoring) versus wrappers that force the per-pair Score fallback
// (concatenate-and-sort per pair). Both sides share the gate-cascade
// ordering — the η fast path shields the similarity test either way — so
// the ratio is the per-region precompute's contribution alone, not the full
// speedup over the pre-rework engine quoted in README's Performance section.
func BenchmarkAuditDensePreparedVsFallback(b *testing.B) {
	p := experiments.DenseAuditPartitioning(400, 7)
	b.Run("prepared", func(b *testing.B) {
		cfg := lcsf.DefaultConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lcsf.Audit(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fallback", func(b *testing.B) {
		cfg := lcsf.DefaultConfig()
		cfg.Similarity = scoreOnlyMetric{cfg.Similarity}
		cfg.Dissimilarity = scoreOnlyMetric{cfg.Dissimilarity}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lcsf.Audit(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benchmarks ---------------------------------------------------

// BenchmarkAblationPairwiseVsGlobal contrasts the cost of LC-SF's pairwise
// audit (quadratic in regions, but gated) against the baseline's linear
// local-vs-global audit — the price of MAUP robustness.
func BenchmarkAblationPairwiseVsGlobal(b *testing.B) {
	f := getFixture(b)
	b.Run("pairwise-lcsf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lcsf.Audit(f.part, lcsf.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global-sacharidis", func(b *testing.B) {
		cfg := lcsf.DefaultSacharidisConfig()
		cfg.MinRegionSize = lcsf.DefaultConfig().MinRegionSize
		for i := 0; i < b.N; i++ {
			if _, err := lcsf.SacharidisAudit(f.part, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGateOrder measures the two gate metrics in isolation: the
// O(1) z-test versus the O(k log k) Mann-Whitney test, which is why the
// audit applies the z-test first.
func BenchmarkAblationGateOrder(b *testing.B) {
	f := getFixture(b)
	idx := f.part.NonEmpty(100)
	if len(idx) < 2 {
		b.Fatal("fixture too sparse")
	}
	ra, rb := &f.part.Regions[idx[0]], &f.part.Regions[idx[1]]
	b.Run("zscore-gate", func(b *testing.B) {
		m := core.ZScoreDissimilarity{}
		for i := 0; i < b.N; i++ {
			m.Score(ra, rb)
		}
	})
	b.Run("mannwhitney-gate", func(b *testing.B) {
		m := core.MannWhitneySimilarity{}
		for i := 0; i < b.N; i++ {
			m.Score(ra, rb)
		}
	})
}

// BenchmarkAblationMonteCarloWorlds measures the audit at different
// Monte-Carlo world counts m.
func BenchmarkAblationMonteCarloWorlds(b *testing.B) {
	f := getFixture(b)
	for _, m := range []int{99, 499, 999} {
		cfg := lcsf.DefaultConfig()
		cfg.MCWorlds = m
		b.Run(benchName("m", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lcsf.Audit(f.part, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAdaptiveMC contrasts the exact Monte-Carlo p-value with
// the adaptive early-stopping estimator on a non-significant observation —
// the optimization that makes dense sweeps tractable.
func BenchmarkAblationAdaptiveMC(b *testing.B) {
	n1, n2, rate := 500, 600, 0.62
	rng := stats.NewRNG(9)
	b1, b2 := stats.NewBinomialSampler(n1, rate), stats.NewBinomialSampler(n2, rate)
	simulate := func() float64 {
		return stats.PairLRT(b1.Draw(rng), n1, b2.Draw(rng), n2)
	}
	obsStat := simulate()
	// At alpha 1 no exceedance count can prove p > alpha, so the estimator
	// draws all m worlds: the exact p-value.
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.AdaptiveMonteCarloP(obsStat, 999, 1, simulate)
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.AdaptiveMonteCarloP(obsStat, 999, 0.01, simulate)
		}
	})
}

// BenchmarkAuditObservability contrasts the uninstrumented audit with one
// recording per-phase counters, timings, and events into an obs.Collector.
// The acceptance bar for the observability layer is instrumented overhead
// within 5% of the uninstrumented path: tallies are accumulated per shard
// with plain integers and published once per audit, so the pair loop pays
// nothing per iteration.
func BenchmarkAuditObservability(b *testing.B) {
	f := getFixture(b)
	b.Run("uninstrumented", func(b *testing.B) {
		cfg := lcsf.DefaultConfig()
		for i := 0; i < b.N; i++ {
			if _, err := lcsf.Audit(f.part, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		cfg := lcsf.DefaultConfig()
		cfg.Collector = obs.NewCollector(0)
		for i := 0; i < b.N; i++ {
			if _, err := lcsf.Audit(f.part, cfg); err != nil {
				b.Fatal(err)
			}
		}
		if cfg.Collector.Snapshot().Counter(obs.MAuditRuns) != int64(b.N) {
			b.Fatal("collector missed audits")
		}
	})
}

// BenchmarkAblationReservoirSize measures partitioning plus audit at
// different income-sample caps (IncomeSampleCap, the most records a
// region's sample keeps): the knob trading Mann-Whitney power against audit
// cost.
func BenchmarkAblationReservoirSize(b *testing.B) {
	f := getFixture(b)
	for _, cap := range []int{100, 200, 500} {
		b.Run(benchName("cap", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part := lcsf.PartitionGrid(lcsf.ContinentalUS, 50, 25, f.obs,
					lcsf.PartitionOptions{Seed: 1, IncomeSampleCap: cap})
				if _, err := lcsf.Audit(part, lcsf.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSpatialJoin contrasts the R-tree point query used for the
// census join against a linear scan over tracts.
func BenchmarkAblationSpatialJoin(b *testing.B) {
	f := getFixture(b)
	boxes := make([]geo.BBox, len(f.model.Tracts))
	for i, tr := range f.model.Tracts {
		boxes[i] = tr.Box
	}
	tree := geo.BuildRTree(boxes, nil)
	pts := make([]geo.Point, 10000)
	rng := stats.NewRNG(3)
	for i := range pts {
		pts[i] = geo.Pt(
			geo.ContinentalUS.Min.X+rng.Float64()*geo.ContinentalUS.Width(),
			geo.ContinentalUS.Min.Y+rng.Float64()*geo.ContinentalUS.Height(),
		)
	}
	b.Run("rtree", func(b *testing.B) {
		buf := make([]int, 0, 16)
		for i := 0; i < b.N; i++ {
			buf = tree.QueryPoint(pts[i%len(pts)], buf[:0])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pts[i%len(pts)]
			hits := 0
			for j := range boxes {
				if boxes[j].ContainsClosed(p) {
					hits++
				}
			}
			_ = hits
		}
	})
}

// --- Substrate micro-benchmarks --------------------------------------------

func BenchmarkMannWhitney500(b *testing.B) {
	rng := stats.NewRNG(1)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.MannWhitneyU(xs, ys)
	}
}

func BenchmarkPairLRT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats.PairLRT(300+i%10, 500, 350, 600)
	}
}

// BenchmarkByGrid measures the partition layer on its two shapes: "dense"
// is the R=3000 dense audit universe (900k records, 300 to a region, every
// sample sorted in full), and "lar" a full-volume Loan Depot LAR at the
// service's 100x50 grid (a few thousand non-empty regions, most of them
// small, and a few over the sample cap).
func BenchmarkByGrid(b *testing.B) {
	denseObs, denseGrid := experiments.DenseAuditObservations(3000, 1)
	ld, err := hmda.LenderByName("Loan Depot")
	if err != nil {
		b.Fatal(err)
	}
	model := census.Generate(census.Config{Seed: experiments.DefaultSeed})
	larObs := hmda.ToObservations(hmda.Generate(model, ld))
	for _, tc := range []struct {
		name string
		grid geo.Grid
		obs  []partition.Observation
	}{
		{"dense", denseGrid, denseObs},
		{"lar", geo.NewGrid(geo.ContinentalUS, 100, 50), larObs},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				partition.ByGrid(tc.grid, tc.obs, partition.Options{Seed: 1})
			}
		})
	}
}

// BenchmarkReadCSV measures the CSV layer of LAR ingest: table.ReadCSV
// over one full-volume Loan Depot LAR body (266,084 rows, ~19.8 MB), the
// body a POST /audit of that lender parses first.
func BenchmarkReadCSV(b *testing.B) {
	ld, err := hmda.LenderByName("Loan Depot")
	if err != nil {
		b.Fatal(err)
	}
	model := census.Generate(census.Config{Seed: experiments.DefaultSeed})
	tbl, err := hmda.ToTable(hmda.Generate(model, ld))
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := tbl.WriteCSV(&body); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.ReadCSV(bytes.NewReader(body.Bytes()), hmda.Schema()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportBuild measures the report layer of POST /audit:
// report.Build over a full-volume Loan Depot audit at the service's default
// 100x50 grid, one income decomposition per flagged pair. Each iteration
// re-partitions outside the timer, which also builds the sorted sample
// views the decompositions read, so the timed part is what a request's
// report costs.
func BenchmarkReportBuild(b *testing.B) {
	ld, err := hmda.LenderByName("Loan Depot")
	if err != nil {
		b.Fatal(err)
	}
	model := census.Generate(census.Config{Seed: experiments.DefaultSeed})
	obsv := hmda.ToObservations(hmda.Generate(model, ld))
	cfg := core.DefaultConfig()
	grid := geo.NewGrid(geo.ContinentalUS, 100, 50)
	opts := partition.Options{Seed: cfg.Seed}
	res, err := core.Audit(partition.ByGrid(grid, obsv, opts), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		part := partition.ByGrid(grid, obsv, opts)
		b.StartTimer()
		if doc := report.Build(part, grid, res); doc.UnfairPairs != len(res.Pairs) {
			b.Fatalf("report holds %d pairs, audit flagged %d", doc.UnfairPairs, len(res.Pairs))
		}
	}
	b.ReportMetric(float64(len(res.Pairs)), "pairs")
}

func BenchmarkGenerateMortgages(b *testing.B) {
	f := getFixture(b)
	l := lcsf.Lender{Name: "Bench", Decisioned: 10000, Bias: 0.1, Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs := lcsf.GenerateMortgages(f.model, l); len(recs) == 0 {
			b.Fatal("no records")
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
