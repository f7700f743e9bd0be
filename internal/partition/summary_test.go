package partition

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/stats"
)

// summaryFixture builds a partitioning with deliberately uneven regions: a
// large mixed cell, a small cell, a single-observation cell (no variance), and
// an empty cell, so the summary edge cases (NaN moments, missing variance) all
// appear.
func summaryFixture(t *testing.T) *Partitioning {
	t.Helper()
	rng := stats.NewRNG(99)
	var obs []Observation
	add := func(x float64, n int, rate, share, income float64) {
		for i := 0; i < n; i++ {
			obs = append(obs, Observation{
				Loc:       geo.Pt(x, 0.5),
				Positive:  rng.Bernoulli(rate),
				Protected: rng.Bernoulli(share),
				Income:    income + 3000*rng.NormFloat64(),
			})
		}
	}
	add(0.5, 250, 0.6, 0.3, 50000)
	add(1.5, 40, 0.4, 0.7, 90000)
	add(2.5, 1, 1.0, 1.0, 70000)
	// cell 3 stays empty
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(4, 1)), 4, 1)
	return ByGrid(grid, obs, Options{Seed: 7})
}

// TestSummarizeMatchesAccessors asserts every summary field agrees with the
// exact accessors and statistics the gate cascade itself consumes — the
// property that keeps summary-derived "exact" metric bounds bit-identical to
// the gates.
func TestSummarizeMatchesAccessors(t *testing.T) {
	p := summaryFixture(t)
	for i := range p.Regions {
		r := &p.Regions[i]
		s := Summarize(r)
		if s.N != r.N || s.Positives != r.Positives || s.Protected != r.Protected {
			t.Errorf("region %d: counts diverged: %+v vs N=%d P=%d M=%d", i, s, r.N, r.Positives, r.Protected)
		}
		if s.PositiveRate != r.PositiveRate() || s.ProtectedShare != r.ProtectedShare() {
			t.Errorf("region %d: rates diverged", i)
		}
		sample := r.IncomeSample()
		if s.SampleN != len(sample) {
			t.Errorf("region %d: SampleN = %d, want %d", i, s.SampleN, len(sample))
		}
		wantMean := stats.Mean(sample)
		wantVar := stats.SampleVariance(sample)
		if !floatEqOrBothNaN(s.IncomeMean, wantMean) || !floatEqOrBothNaN(s.IncomeVariance, wantVar) {
			t.Errorf("region %d: moments diverged: mean %v vs %v, var %v vs %v",
				i, s.IncomeMean, wantMean, s.IncomeVariance, wantVar)
		}
		if len(sample) == 0 {
			if !math.IsNaN(s.IncomeMin) || !math.IsNaN(s.IncomeMax) {
				t.Errorf("region %d: empty sample must have NaN range, got [%v, %v]", i, s.IncomeMin, s.IncomeMax)
			}
			continue
		}
		lo, hi := sample[0], sample[0]
		for _, v := range sample {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if s.IncomeMin != lo || s.IncomeMax != hi {
			t.Errorf("region %d: range [%v, %v], want [%v, %v]", i, s.IncomeMin, s.IncomeMax, lo, hi)
		}
	}
}

func floatEqOrBothNaN(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b //lint:floateq-ok exact-agreement-assertion
}

// TestSummaryIndexOrders asserts each dimension's sorted view is ascending, a
// permutation of the non-NaN regions, and excludes exactly the regions whose
// key is NaN (empty-sample regions on the income-mean dimension).
func TestSummaryIndexOrders(t *testing.T) {
	p := summaryFixture(t)
	regions := make([]*Region, len(p.Regions))
	for i := range p.Regions {
		regions[i] = &p.Regions[i]
	}
	ix := NewSummaryIndexWorkers(regions, 1)
	if len(ix.Summaries) != len(regions) {
		t.Fatalf("summaries = %d, want %d", len(ix.Summaries), len(regions))
	}

	for d := SummaryDim(0); d < numSummaryDims; d++ {
		keys, pos := ix.Dim(d)
		if len(keys) != len(pos) {
			t.Fatalf("dim %d: keys/pos length mismatch", d)
		}
		if !sort.Float64sAreSorted(keys) {
			t.Errorf("dim %d: keys not ascending: %v", d, keys)
		}
		seen := map[int32]bool{}
		for k, pi := range pos {
			if seen[pi] {
				t.Errorf("dim %d: position %d appears twice", d, pi)
			}
			seen[pi] = true
			if got := summaryKey(&ix.Summaries[pi], d); got != keys[k] { //lint:floateq-ok exact-agreement-assertion
				t.Errorf("dim %d: keys[%d] = %v but summary key = %v", d, k, keys[k], got)
			}
		}
		// Exactly the finite-key regions appear.
		finite := 0
		for i := range ix.Summaries {
			if !math.IsNaN(summaryKey(&ix.Summaries[i], d)) {
				finite++
			}
		}
		if len(keys) != finite {
			t.Errorf("dim %d: order has %d entries, want %d finite keys", d, len(keys), finite)
		}
	}

	// The empty region has a NaN income mean and must be absent from the
	// income order but present in the share and rate orders.
	_, meanPos := ix.Dim(DimIncomeMean)
	if sharesKeys, _ := ix.Dim(DimProtectedShare); len(sharesKeys) != len(regions) {
		t.Errorf("share order has %d entries, want all %d regions", len(sharesKeys), len(regions))
	}
	if len(meanPos) >= len(regions) {
		t.Errorf("income order should exclude the empty region: %d entries", len(meanPos))
	}
}

// TestSummaryStatsEnvelope recomputes the envelope brute-force and checks the
// conservative-bounds inputs: MaxN over all regions, MinSampleN and MaxMeanSE2
// over variance-bearing regions only.
func TestSummaryStatsEnvelope(t *testing.T) {
	p := summaryFixture(t)
	regions := make([]*Region, len(p.Regions))
	for i := range p.Regions {
		regions[i] = &p.Regions[i]
	}
	ix := NewSummaryIndexWorkers(regions, 1)

	wantMaxN, wantMinSample, wantSE2 := 0, 0, 0.0
	for i := range ix.Summaries {
		s := &ix.Summaries[i]
		if s.N > wantMaxN {
			wantMaxN = s.N
		}
		if s.SampleN >= 2 {
			if wantMinSample == 0 || s.SampleN < wantMinSample {
				wantMinSample = s.SampleN
			}
			if se2 := s.IncomeVariance / float64(s.SampleN); se2 > wantSE2 {
				wantSE2 = se2
			}
		}
	}
	if ix.Stats.MaxN != wantMaxN || ix.Stats.MinSampleN != wantMinSample || ix.Stats.MaxMeanSE2 != wantSE2 { //lint:floateq-ok exact-agreement-assertion
		t.Errorf("envelope = %+v, want MaxN=%d MinSampleN=%d MaxMeanSE2=%v",
			ix.Stats, wantMaxN, wantMinSample, wantSE2)
	}

	// The single-observation region must not drag MinSampleN to 1: it carries
	// no variance and the Welch bound never consults it.
	if ix.Stats.MinSampleN == 1 {
		t.Error("MinSampleN counted a variance-free region")
	}
}

// TestSummaryIndexRandomUpdates drives UpdateRegion through random update
// sequences over regions whose keys collide often (few distinct counts and
// incomes, so ties break by position) and often vanish (an empty sample has
// a NaN mean, absent from that order), and requires the index to equal a
// fresh build after every step.
func TestSummaryIndexRandomUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomize := func(r *Region) {
		r.N = rng.Intn(4)
		r.Positives = rng.Intn(r.N + 1)
		r.Protected = rng.Intn(r.N + 1)
		r.sample = nil
		if k := rng.Intn(3); k > 0 {
			r.sample = &pairedSample{}
			for i := 0; i < k; i++ {
				r.sample.incomes = append(r.sample.incomes, float64(1+rng.Intn(3)))
			}
		}
	}
	for seq := 0; seq < 20; seq++ {
		regions := make([]*Region, 1+rng.Intn(40))
		for i := range regions {
			regions[i] = &Region{}
			randomize(regions[i])
		}
		ix := NewSummaryIndexWorkers(regions, 1)
		for step := 0; step < 60; step++ {
			pos := rng.Intn(len(regions))
			if rng.Intn(4) > 0 { // else re-apply the region unchanged
				randomize(regions[pos])
			}
			ix.UpdateRegion(pos, regions[pos])
			fresh := NewSummaryIndexWorkers(regions, 1)
			if ix.Stats != fresh.Stats {
				t.Fatalf("sequence %d step %d: stats %+v, a fresh build has %+v", seq, step, ix.Stats, fresh.Stats)
			}
			for d := SummaryDim(0); d < numSummaryDims; d++ {
				gk, gp := ix.Dim(d)
				wk, wp := fresh.Dim(d)
				if !slices.Equal(gp, wp) || !slices.EqualFunc(gk, wk, func(a, b float64) bool { return a == b }) { //lint:floateq-ok exact comparison with a rebuild
					t.Fatalf("sequence %d step %d: dim %d order keys=%v pos=%v, a fresh build has keys=%v pos=%v",
						seq, step, d, gk, gp, wk, wp)
				}
			}
		}
	}
}
