package partition

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/stats"
)

func makeObs() []Observation {
	// Four observations in a 2x2 grid over [0,2)x[0,2): one per cell, plus
	// one out of bounds.
	return []Observation{
		{Loc: geo.Pt(0.5, 0.5), Positive: true, Protected: true, Income: 40000},
		{Loc: geo.Pt(1.5, 0.5), Positive: false, Protected: false, Income: 60000},
		{Loc: geo.Pt(0.5, 1.5), Positive: true, Protected: false, Income: 80000},
		{Loc: geo.Pt(1.5, 1.5), Positive: false, Protected: true, Income: 30000},
		{Loc: geo.Pt(5, 5), Positive: true, Protected: true, Income: 99999}, // dropped
	}
}

func TestByGridBasicAggregation(t *testing.T) {
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(2, 2)), 2, 2)
	p := ByGrid(grid, makeObs(), Options{Seed: 1})
	if p.TotalN != 4 || p.TotalPositives != 2 {
		t.Fatalf("totals = %d/%d, want 4/2", p.TotalPositives, p.TotalN)
	}
	if got := p.GlobalRate(); got != 0.5 {
		t.Errorf("GlobalRate = %v", got)
	}
	r0 := p.Regions[0]
	if r0.N != 1 || r0.Positives != 1 || r0.Protected != 1 || r0.NonProtected != 0 {
		t.Errorf("region 0 = %+v", r0)
	}
	if r0.PositiveRate() != 1 || r0.ProtectedShare() != 1 {
		t.Errorf("region 0 rates wrong")
	}
	if s := r0.IncomeSample(); len(s) != 1 || s[0] != 40000 {
		t.Errorf("region 0 income sample = %v", s)
	}
	r3 := p.Regions[3]
	if r3.N != 1 || r3.Positives != 0 {
		t.Errorf("region 3 = %+v", r3)
	}
}

func TestEmptyRegionAccessors(t *testing.T) {
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(2, 2)), 2, 2)
	p := ByGrid(grid, nil, Options{})
	r := p.Regions[0]
	if r.PositiveRate() != 0 || r.ProtectedShare() != 0 || r.IncomeSample() != nil {
		t.Errorf("empty region accessors: %+v", r)
	}
	if p.GlobalRate() != 0 {
		t.Error("empty partitioning global rate should be 0")
	}
}

func TestNonEmpty(t *testing.T) {
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(2, 2)), 2, 2)
	obs := makeObs()
	// Add three more to cell 0.
	for i := 0; i < 3; i++ {
		obs = append(obs, Observation{Loc: geo.Pt(0.1, 0.1), Income: 1})
	}
	p := ByGrid(grid, obs, Options{})
	if got := p.NonEmpty(1); len(got) != 4 {
		t.Errorf("NonEmpty(1) = %v", got)
	}
	if got := p.NonEmpty(2); len(got) != 1 || got[0] != 0 {
		t.Errorf("NonEmpty(2) = %v", got)
	}
	if got := p.NonEmpty(0); len(got) != 4 {
		t.Errorf("NonEmpty(0) should clamp to 1: %v", got)
	}
}

func TestIncomeSampleCapped(t *testing.T) {
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(1, 1)), 1, 1)
	var obs []Observation
	for i := 0; i < 5000; i++ {
		obs = append(obs, Observation{Loc: geo.Pt(0.5, 0.5), Income: float64(i)})
	}
	p := ByGrid(grid, obs, Options{IncomeSampleCap: 50, Seed: 2})
	if got := len(p.Regions[0].IncomeSample()); got != 50 {
		t.Errorf("sample size = %d, want 50", got)
	}
	// The sample should roughly represent the stream.
	m := stats.Mean(p.Regions[0].IncomeSample())
	if math.Abs(m-2499.5) > 600 {
		t.Errorf("sample mean = %v, want ~2500", m)
	}
	p2 := ByGrid(grid, obs, Options{Seed: 2})
	if got := len(p2.Regions[0].IncomeSample()); got != DefaultIncomeSampleCap {
		t.Errorf("default cap = %d, want %d", got, DefaultIncomeSampleCap)
	}
}

func TestByGridDeterministic(t *testing.T) {
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(2, 2)), 2, 2)
	var obs []Observation
	rng := stats.NewRNG(3)
	for i := 0; i < 2000; i++ {
		obs = append(obs, Observation{
			Loc:    geo.Pt(rng.Float64()*2, rng.Float64()*2),
			Income: rng.Float64() * 1e5,
		})
	}
	a := ByGrid(grid, obs, Options{Seed: 9, IncomeSampleCap: 30})
	b := ByGrid(grid, obs, Options{Seed: 9, IncomeSampleCap: 30})
	for i := range a.Regions {
		sa, sb := a.Regions[i].IncomeSample(), b.Regions[i].IncomeSample()
		if len(sa) != len(sb) {
			t.Fatalf("region %d sample sizes differ", i)
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("region %d sample differs at %d", i, j)
			}
		}
	}
}

func TestByAssignCustomPartitioning(t *testing.T) {
	obs := makeObs()
	// Split by the x=1 line into 2 regions; drop the out-of-bounds one.
	assign := func(p geo.Point) int {
		if p.X > 2 || p.Y > 2 {
			return -1
		}
		if p.X < 1 {
			return 0
		}
		return 1
	}
	p := ByAssign(2, assign, obs, Options{})
	if p.TotalN != 4 {
		t.Fatalf("TotalN = %d", p.TotalN)
	}
	if p.Regions[0].N != 2 || p.Regions[1].N != 2 {
		t.Errorf("region sizes = %d, %d", p.Regions[0].N, p.Regions[1].N)
	}
	if p.Regions[0].Positives != 2 || p.Regions[1].Positives != 0 {
		t.Errorf("positives = %d, %d", p.Regions[0].Positives, p.Regions[1].Positives)
	}
	// Bounds should cover the assigned observations.
	if !p.Regions[0].Bounds.ContainsClosed(geo.Pt(0.5, 0.5)) {
		t.Error("region 0 bounds should cover its observations")
	}
}

func TestByAssignPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ByAssign(1, func(geo.Point) int { return 5 }, makeObs(), Options{})
}

// Property-style check: grid aggregation conserves counts — the sum over
// regions equals the number of in-bounds observations for every statistic.
func TestAggregationConservation(t *testing.T) {
	grid := geo.NewGrid(geo.ContinentalUS, 10, 10)
	rng := stats.NewRNG(7)
	var obs []Observation
	wantN, wantP, wantG, wantV := 0, 0, 0, 0
	for i := 0; i < 5000; i++ {
		o := Observation{
			Loc: geo.Pt(
				geo.ContinentalUS.Min.X+rng.Float64()*geo.ContinentalUS.Width(),
				geo.ContinentalUS.Min.Y+rng.Float64()*geo.ContinentalUS.Height(),
			),
			Positive:  rng.Bernoulli(0.62),
			Protected: rng.Bernoulli(0.3),
			Income:    rng.Float64() * 2e5,
		}
		obs = append(obs, o)
		wantN++
		if o.Positive {
			wantP++
		}
		if o.Protected {
			wantG++
		} else {
			wantV++
		}
	}
	p := ByGrid(grid, obs, Options{Seed: 8})
	gotN, gotP, gotG, gotV := 0, 0, 0, 0
	for _, r := range p.Regions {
		gotN += r.N
		gotP += r.Positives
		gotG += r.Protected
		gotV += r.NonProtected
	}
	if gotN != wantN || gotP != wantP || gotG != wantG || gotV != wantV {
		t.Errorf("conservation failed: got %d/%d/%d/%d want %d/%d/%d/%d",
			gotN, gotP, gotG, gotV, wantN, wantP, wantG, wantV)
	}
	if p.TotalN != wantN || p.TotalPositives != wantP {
		t.Errorf("totals: %d/%d want %d/%d", p.TotalN, p.TotalPositives, wantN, wantP)
	}
}

// randomRegionObs draws n observations over the 2x2 grid of makeObs, with
// incomes from a small discrete set so equal incomes, with either outcome,
// occur constantly.
func randomRegionObs(rng *stats.RNG, n int) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = Observation{
			Loc:       geo.Pt(rng.Float64()*2, rng.Float64()*2),
			Positive:  rng.Bernoulli(0.5),
			Protected: rng.Bernoulli(0.4),
			Income:    1000 * float64(rng.Intn(40)),
		}
	}
	return obs
}

// TestSampleIsOrderFree: the same records in any order give a DeepEqual
// partitioning, through ByGrid and ByAssign alike, with every region over
// the sample cap.
func TestSampleIsOrderFree(t *testing.T) {
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(2, 2)), 2, 2)
	assign := func(p geo.Point) int {
		idx, _ := grid.CellIndex(p)
		return idx
	}
	rng := stats.NewRNG(12)
	obs := randomRegionObs(rng, 800)
	opts := Options{Seed: 5, IncomeSampleCap: 64}
	build := map[string]func([]Observation) *Partitioning{
		"ByGrid":   func(o []Observation) *Partitioning { return ByGrid(grid, o, opts) },
		"ByAssign": func(o []Observation) *Partitioning { return ByAssign(grid.NumCells(), assign, o, opts) },
	}
	for name, f := range build {
		want := f(obs)
		for i := range want.Regions {
			if want.Regions[i].N <= opts.IncomeSampleCap {
				t.Fatalf("%s: region %d holds %d observations, want more than the cap %d",
					name, i, want.Regions[i].N, opts.IncomeSampleCap)
			}
		}
		for trial := 0; trial < 3; trial++ {
			perm := slices.Clone(obs)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := f(perm); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: permutation %d changed the partitioning", name, trial)
			}
		}
	}
}

// TestSampleIsBottomKOfRank checks the sampler against a full sort: a
// region's sample is its cap-many observations with the smallest (rank,
// income, outcome), every observation when the region fits, held sorted by
// income with the negative outcome first, and the positive view holds the
// positive members' incomes in the same order.
func TestSampleIsBottomKOfRank(t *testing.T) {
	grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(2, 2)), 2, 2)
	rng := stats.NewRNG(21)
	obs := randomRegionObs(rng, 300)
	for _, capN := range []int{1, 16, 75, 500} {
		opts := Options{Seed: 8, IncomeSampleCap: capN}
		p := ByGrid(grid, obs, opts)
		for idx := range p.Regions {
			r := &p.Regions[idx]
			var cands []rankedIncome
			for k := range obs {
				if c, _ := grid.CellIndex(obs[k].Loc); c == idx {
					cands = append(cands, rankedIncome{sampleRank(opts.Seed, &obs[k]), obs[k].Income, obs[k].Positive})
				}
			}
			slices.SortFunc(cands, func(a, b rankedIncome) int {
				if a.before(b) {
					return -1
				}
				if b.before(a) {
					return 1
				}
				return 0
			})
			cands = cands[:min(capN, len(cands))]
			sort.SliceStable(cands, func(i, j int) bool {
				if cands[i].income != cands[j].income {
					return cands[i].income < cands[j].income
				}
				return !cands[i].positive && cands[j].positive
			})
			var inc, posInc []float64
			var out []bool
			for _, c := range cands {
				inc, out = append(inc, c.income), append(out, c.positive)
				if c.positive {
					posInc = append(posInc, c.income)
				}
			}
			if !slices.Equal(r.IncomeSample(), inc) || !slices.Equal(r.OutcomeSample(), out) ||
				!slices.Equal(r.PositiveIncomeSample(), posInc) {
				t.Fatalf("cap %d region %d: sample (%v, %v, %v), want (%v, %v, %v)", capN, idx,
					r.IncomeSample(), r.OutcomeSample(), r.PositiveIncomeSample(), inc, out, posInc)
			}
		}
	}
}
