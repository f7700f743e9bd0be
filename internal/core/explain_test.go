package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// buildPair constructs a two-region partitioning where region 0's and region
// 1's (income, outcome) structure is controlled by the caller.
func buildPair(n int, gen func(rng *stats.RNG, region int) (income float64, positive bool)) *partition.Partitioning {
	rng := stats.NewRNG(61)
	var obs []partition.Observation
	for region := 0; region < 2; region++ {
		for i := 0; i < n; i++ {
			income, pos := gen(rng, region)
			obs = append(obs, partition.Observation{
				Loc:      geo.Pt(float64(region)+0.5, 0.5),
				Positive: pos,
				Income:   income,
			})
		}
	}
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(2, 1)), 2, 1)
	return partition.ByGrid(grid, obs, partition.Options{Seed: 4, IncomeSampleCap: 2000})
}

func TestExplainPureIncomeGap(t *testing.T) {
	// Outcomes depend only on income; region 1 is richer. The whole gap
	// should be income-explained.
	p := buildPair(2000, func(rng *stats.RNG, region int) (float64, bool) {
		income := 40000 + 15000*rng.NormFloat64()
		if region == 1 {
			income += 30000
		}
		prob := 0.2
		if income > 55000 {
			prob = 0.8
		}
		return income, rng.Bernoulli(prob)
	})
	e := Explain(&p.Regions[0], &p.Regions[1], 0)
	if e.ObservedGap < 0.2 {
		t.Fatalf("fixture should have a large gap, got %v", e.ObservedGap)
	}
	if frac := e.ExplainedFraction(); frac < 0.8 {
		t.Errorf("income should explain most of the gap: explained fraction %v (%+v)", frac, e)
	}
	if math.Abs(e.Residual) > 0.4*e.ObservedGap {
		t.Errorf("residual %v too large for a pure income gap %v", e.Residual, e.ObservedGap)
	}
}

func TestExplainPureBiasGap(t *testing.T) {
	// Identical income distributions; region 0 is simply treated worse. The
	// gap should be almost entirely residual.
	p := buildPair(2000, func(rng *stats.RNG, region int) (float64, bool) {
		income := 50000 + 10000*rng.NormFloat64()
		prob := 0.7
		if region == 0 {
			prob = 0.45
		}
		return income, rng.Bernoulli(prob)
	})
	e := Explain(&p.Regions[0], &p.Regions[1], 0)
	if e.ObservedGap < 0.15 {
		t.Fatalf("fixture should have a large gap, got %v", e.ObservedGap)
	}
	if frac := e.ExplainedFraction(); frac > 0.25 {
		t.Errorf("income should explain almost nothing: explained fraction %v (%+v)", frac, e)
	}
}

func TestExplainMixedGap(t *testing.T) {
	// Half the gap from income, half from bias: the decomposition should
	// attribute a middling fraction to income.
	p := buildPair(4000, func(rng *stats.RNG, region int) (float64, bool) {
		income := 45000 + 12000*rng.NormFloat64()
		if region == 1 {
			income += 12000
		}
		prob := 0.35 + 0.3*sigmoid((income-50000)/15000)
		if region == 0 {
			prob -= 0.10 // planted bias
		}
		return income, rng.Bernoulli(clamp(prob))
	})
	e := Explain(&p.Regions[0], &p.Regions[1], 0)
	frac := e.ExplainedFraction()
	if frac < 0.15 || frac > 0.85 {
		t.Errorf("mixed gap should be partially explained: fraction %v (%+v)", frac, e)
	}
	if e.Residual < 0.03 {
		t.Errorf("planted bias should leave a residual: %v", e.Residual)
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clamp(p float64) float64 {
	if p < 0.02 {
		return 0.02
	}
	if p > 0.98 {
		return 0.98
	}
	return p
}

func TestExplainEmptyRegions(t *testing.T) {
	e := Explain(&partition.Region{}, &partition.Region{}, 5)
	if e != (Explanation{}) {
		t.Errorf("empty regions should give zero explanation: %+v", e)
	}
	if e.ExplainedFraction() != 0 {
		t.Error("zero gap fraction should be 0")
	}
}

func TestExplainSmallSamplesReduceBins(t *testing.T) {
	p := buildPair(12, func(rng *stats.RNG, region int) (float64, bool) {
		return 50000 + 1000*rng.NormFloat64(), rng.Bernoulli(0.5)
	})
	e := Explain(&p.Regions[0], &p.Regions[1], 50)
	if e.Bins > 3 {
		t.Errorf("bins should shrink with tiny samples: %d", e.Bins)
	}
	if e.Bins < 1 {
		t.Errorf("bins must stay >= 1: %d", e.Bins)
	}
}

func TestExplainPairUsesOrientation(t *testing.T) {
	p := makeRegions(t, 500)
	res, err := Audit(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs")
	}
	e := ExplainPair(p, res.Pairs[0], 0)
	// The planted pair has equal incomes and pure bias: positive observed
	// gap, almost all residual.
	if e.ObservedGap <= 0 {
		t.Errorf("observed gap should be positive with pair orientation: %v", e.ObservedGap)
	}
	if e.ExplainedFraction() > 0.35 {
		t.Errorf("planted pure-bias pair should be mostly unexplained: %+v", e)
	}
}

func TestExplainedFractionClamps(t *testing.T) {
	if f := (Explanation{ObservedGap: 0.1, IncomeExplained: 0.2}).ExplainedFraction(); f != 1 {
		t.Errorf("over-explained should clamp to 1, got %v", f)
	}
	if f := (Explanation{ObservedGap: 0.1, IncomeExplained: -0.05}).ExplainedFraction(); f != 0 {
		t.Errorf("counter-explained should clamp to 0, got %v", f)
	}
}

// explainPooledSort is Explain as it was before the bin edges were merged
// from the regions' cached sorted samples: it copies and sorts the pooled
// incomes. TestExplainMatchesPooledSort holds Explain to it.
func explainPooledSort(a, b *partition.Region, bins int) Explanation {
	ia, oa := a.IncomeSample(), a.OutcomeSample()
	ib, ob := b.IncomeSample(), b.OutcomeSample()
	if len(ia) == 0 || len(ib) == 0 {
		return Explanation{}
	}
	if bins <= 0 {
		bins = DefaultExplainBins
	}
	if max := (len(ia) + len(ib)) / 8; bins > max {
		bins = max
	}
	if bins < 1 {
		bins = 1
	}
	pooled := make([]float64, 0, len(ia)+len(ib))
	pooled = append(pooled, ia...)
	pooled = append(pooled, ib...)
	sort.Float64s(pooled)
	edges := make([]float64, bins-1)
	for k := 1; k < bins; k++ {
		edges[k-1] = pooled[k*len(pooled)/bins]
	}
	binOf := func(x float64) int {
		lo, hi := 0, len(edges)
		for lo < hi {
			mid := (lo + hi) / 2
			if edges[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	binPos := make([]int, bins)
	binN := make([]int, bins)
	aShare := make([]float64, bins)
	bShare := make([]float64, bins)
	accumulate := func(incomes []float64, outcomes []bool, share []float64) float64 {
		positives := 0
		for i, x := range incomes {
			k := binOf(x)
			binN[k]++
			share[k]++
			if outcomes[i] {
				binPos[k]++
				positives++
			}
		}
		for k := range share {
			share[k] /= float64(len(incomes))
		}
		return float64(positives) / float64(len(incomes))
	}
	rateA := accumulate(ia, oa, aShare)
	rateB := accumulate(ib, ob, bShare)
	var expA, expB float64
	for k := 0; k < bins; k++ {
		if binN[k] == 0 {
			continue
		}
		rate := float64(binPos[k]) / float64(binN[k])
		expA += aShare[k] * rate
		expB += bShare[k] * rate
	}
	obs := rateB - rateA
	explained := expB - expA
	return Explanation{ObservedGap: obs, IncomeExplained: explained, Residual: obs - explained, Bins: bins}
}

// TestExplainMatchesPooledSort asserts the selected bin edges and searched
// bin counts give an Explanation bit-identical to sorting the pooled
// incomes, and edges the sorted pooled copy holds at the same indexes,
// across unequal region sizes, heavy ties (±0 included), the bins >
// pooled/8 clamp, and NaN and infinite incomes (which partitioning drops).
// It runs over ByGrid regions and over the regions of a DeltaPartitioning
// snapshot that received half the records as updates.
func TestExplainMatchesPooledSort(t *testing.T) {
	incomeOf := map[string]func(rng *stats.RNG) float64{
		"continuous": func(rng *stats.RNG) float64 { return 50000 + 15000*rng.NormFloat64() },
		"ties": func(rng *stats.RNG) float64 {
			return [...]float64{math.Copysign(0, -1), 0, 1, 1, 2, 40000}[rng.Intn(6)]
		},
		"nan": func(rng *stats.RNG) float64 {
			switch rng.Intn(5) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return float64(rng.Intn(4))
		},
	}
	for name, income := range incomeOf {
		for _, sizes := range [][2]int{{300, 300}, {40, 700}, {9, 15}, {1, 7}, {3, 3}} {
			rng := stats.NewRNG(uint64(sizes[0]*1000 + sizes[1]))
			var obs []partition.Observation
			for region, n := range sizes {
				for i := 0; i < n; i++ {
					obs = append(obs, partition.Observation{
						Loc:      geo.Pt(float64(region)+0.5, 0.5),
						Positive: rng.Bernoulli(0.4),
						Income:   income(rng),
					})
				}
			}
			grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(2, 1)), 2, 1)
			opts := partition.Options{Seed: 9, IncomeSampleCap: 2000}
			// The delta snapshot gets half the records as updates and is
			// held to the same pooled sort as the batch partitioning.
			dp := partition.NewDeltaByGrid(grid, obs[:len(obs)/2], opts)
			for _, o := range obs[len(obs)/2:] {
				dp.Insert(o)
			}
			for _, part := range []struct {
				kind string
				p    *partition.Partitioning
			}{{"batch", partition.ByGrid(grid, obs, opts)}, {"delta", dp.Snapshot()}} {
				kind, p := part.kind, part.p
				a, b := &p.Regions[0], &p.Regions[1]
				for _, bins := range []int{0, 1, 2, 7, 10, 50, 1000} {
					got, want := Explain(a, b, bins), explainPooledSort(a, b, bins)
					if !explanationBitsEqual(got, want) {
						t.Errorf("%s %s sizes %v bins %d: selected %+v, pooled sort %+v", kind, name, sizes, bins, got, want)
					}
					if got.Bins < 2 {
						continue
					}
					pooled := append(append([]float64(nil), a.IncomeSample()...), b.IncomeSample()...)
					sort.Float64s(pooled)
					edges := make([]float64, got.Bins-1)
					pooledOrderStats(edges, a.IncomeSample(), b.IncomeSample(), got.Bins)
					for k, e := range edges {
						w := pooled[(k+1)*len(pooled)/got.Bins]
						if !(e == w || math.IsNaN(e) && math.IsNaN(w)) {
							t.Errorf("%s %s sizes %v bins %d edge %d: selected %v, pooled sort %v", kind, name, sizes, bins, k, e, w)
						}
					}
				}
			}
		}
	}
}

func explanationBitsEqual(x, y Explanation) bool {
	same := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
	return x.Bins == y.Bins && same(x.ObservedGap, y.ObservedGap) &&
		same(x.IncomeExplained, y.IncomeExplained) && same(x.Residual, y.Residual)
}

// TestExplainConcurrent explains every ordered pair of shared regions from
// 8 goroutines at once and holds each result to a serial run over an
// identical partitioning. Under `make race` it checks that Explain only
// reads the regions it is given.
func TestExplainConcurrent(t *testing.T) {
	serial, shared := makeRegions(t, 300), makeRegions(t, 300)
	n := len(shared.Regions)
	want := make([]Explanation, n*n)
	for idx := range want {
		want[idx] = Explain(&serial.Regions[idx/n], &serial.Regions[idx%n], 0)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*n*n)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the pairs from its own offset.
			for step := range want {
				idx := (step + g) % len(want)
				got := Explain(&shared.Regions[idx/n], &shared.Regions[idx%n], 0)
				if !explanationBitsEqual(got, want[idx]) {
					errs <- fmt.Sprintf("goroutine %d pair (%d,%d): %+v, serial %+v", g, idx/n, idx%n, got, want[idx])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
