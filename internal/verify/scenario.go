package verify

import (
	"math"

	"lcsf/internal/census"
	"lcsf/internal/geo"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// ScenarioConfig sizes a synthetic audit scenario. The zero value is not
// usable; start from DefaultScenarioConfig.
type ScenarioConfig struct {
	// Tracts is the census-model size the individuals are drawn from.
	Tracts int
	// Individuals is the number of observations generated.
	Individuals int
	// Cols, Rows shape the audit grid over the continental US.
	Cols, Rows int
	// Bias is the approval-rate penalty planted against protected-group
	// individuals in highly segregated metros — the signal the audit is
	// supposed to find.
	Bias float64
	// SampleCap bounds each region's income sample. The default keeps
	// every region below it, because the jitter perturbation moves
	// locations, which the sample's rank hashes; the other perturbations
	// hold over the cap too (TestMetamorphicOverCap).
	SampleCap int
}

// DefaultScenarioConfig returns the harness's standard small scenario:
// large enough that the audit flags pairs through every gate, small enough
// that dozens of audits run in one test.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		Tracts:      900,
		Individuals: 12000,
		Cols:        10,
		Rows:        6,
		Bias:        0.35,
		SampleCap:   4096,
	}
}

// Scenario is one reproducible audit input: the observations, the label
// space, and the assignment function that places an observation's location
// into a region label. Perturbation methods derive audit-equivalent
// variants; Partition realizes the input the audit consumes.
type Scenario struct {
	Grid     geo.Grid
	Obs      []partition.Observation
	NumCells int
	Assign   func(geo.Point) int
	Opts     partition.Options
}

// NewScenario generates a scenario from an explicit generator. All
// randomness — the census model, the individuals, the sample seed —
// derives from rng, so (rng seed, cfg) fully determines the scenario.
func NewScenario(rng *stats.RNG, cfg ScenarioConfig) *Scenario {
	model := census.Generate(census.Config{Seed: rng.Uint64(), NumTracts: cfg.Tracts})
	grid := geo.NewGrid(geo.ContinentalUS, cfg.Cols, cfg.Rows)

	obs := make([]partition.Observation, 0, cfg.Individuals)
	for i := 0; i < cfg.Individuals; i++ {
		ti := model.SampleTract(rng)
		t := model.Tracts[ti]
		loc := model.SamplePointIn(rng, ti)
		income := t.MeanIncome * math.Exp(0.3*rng.NormFloat64())
		income = math.Max(12000, math.Min(500000, income))
		protected := rng.Bernoulli(t.MinorityShare)
		// A legitimate income effect everywhere, plus the planted penalty
		// against protected individuals in segregated metros.
		rate := 0.35 + 0.5*clamp01((income-30000)/150000)
		if protected && t.Segregation >= 0.6 {
			rate -= cfg.Bias
		}
		obs = append(obs, partition.Observation{
			Loc:       loc,
			Positive:  rng.Bernoulli(clamp01(rate)),
			Protected: protected,
			Income:    income,
		})
	}

	return &Scenario{
		Grid:     grid,
		Obs:      obs,
		NumCells: grid.NumCells(),
		Assign:   gridAssign(grid),
		Opts:     partition.Options{Seed: rng.Uint64(), IncomeSampleCap: cfg.SampleCap},
	}
}

// gridAssign is the base assignment: an observation belongs to the grid cell
// containing it, and observations outside the grid are dropped.
func gridAssign(grid geo.Grid) func(geo.Point) int {
	return func(p geo.Point) int {
		idx, ok := grid.CellIndex(p)
		if !ok {
			return -1
		}
		return idx
	}
}

// Partition realizes the scenario as the partitioning the audit consumes.
func (s *Scenario) Partition() *partition.Partitioning {
	return partition.ByAssign(s.NumCells, s.Assign, s.Obs, s.Opts)
}

// clone copies the scenario's value fields; Obs and Assign are shared until
// a perturbation replaces them.
func (s *Scenario) clone() *Scenario {
	c := *s
	return &c
}

// Relabeled applies a label permutation: region l becomes perm[l]. The
// returned relabel function maps the perturbed scenario's labels back to the
// base scenario's, so FlaggedSet(perturbed, relabel) is directly comparable
// to FlaggedSet(base, nil).
func (s *Scenario) Relabeled(perm []int) (*Scenario, func(int) int) {
	inverse := make([]int, len(perm))
	for from, to := range perm {
		inverse[to] = from
	}
	c := s.clone()
	base := s.Assign
	c.Assign = func(p geo.Point) int {
		l := base(p)
		if l < 0 {
			return l
		}
		return perm[l]
	}
	return c, func(l int) int { return inverse[l] }
}

// RandomPermutation draws a uniform permutation of n labels from rng.
func RandomPermutation(rng *stats.RNG, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// WithEmptyGaps renumbers every label l to l + l/gapEvery, leaving unused
// gap labels in the expanded label space — the shape of a partition whose
// region roster has holes (deleted districts, sparse identifiers). Eligible
// aggregates are unchanged; only the labels move. The returned relabel maps
// perturbed labels back to base labels.
func (s *Scenario) WithEmptyGaps(gapEvery int) (*Scenario, func(int) int) {
	c := s.clone()
	base := s.Assign
	c.NumCells = s.NumCells + (s.NumCells-1)/gapEvery + 1
	c.Assign = func(p geo.Point) int {
		l := base(p)
		if l < 0 {
			return l
		}
		return l + l/gapEvery
	}
	return c, func(l int) int { return l - l/(gapEvery+1) }
}

// ShuffledRecords permutes the observation order. Aggregation, the income
// sample included, depends only on the multiset of records, so the audit
// must not notice.
func (s *Scenario) ShuffledRecords(rng *stats.RNG) *Scenario {
	c := s.clone()
	c.Obs = append([]partition.Observation(nil), s.Obs...)
	rng.Shuffle(len(c.Obs), func(i, j int) { c.Obs[i], c.Obs[j] = c.Obs[j], c.Obs[i] })
	return c
}

// Jittered moves every observation to a fresh uniform location inside its
// grid cell. Region membership — the only thing the audit reads from a
// location — is preserved exactly.
func (s *Scenario) Jittered(rng *stats.RNG) *Scenario {
	c := s.clone()
	c.Obs = append([]partition.Observation(nil), s.Obs...)
	for i := range c.Obs {
		idx, ok := s.Grid.CellIndex(c.Obs[i].Loc)
		if !ok {
			continue
		}
		b := s.Grid.CellBounds(idx)
		// Scale strictly inside the cell so the jittered point cannot land
		// on the shared right/top edge and roll into the neighboring cell.
		c.Obs[i].Loc = geo.Pt(
			b.Min.X+rng.Float64()*0.999*b.Width(),
			b.Min.Y+rng.Float64()*0.999*b.Height(),
		)
	}
	return c
}

// SplitRemerged routes the assignment through a split-then-merge
// composition: each region l is first split into two co-located halves
// (2l and 2l+1, by the parity of a fine subgrid under the observation) and
// the halves are then merged back to l. The composition is the identity on
// labels, so the audit must be unchanged — the oracle checks that assignment
// composition introduces no drift anywhere in the aggregation pipeline.
func (s *Scenario) SplitRemerged() *Scenario {
	c := s.clone()
	base := s.Assign
	w, h := s.Grid.CellWidth(), s.Grid.CellHeight()
	c.Assign = func(p geo.Point) int {
		l := base(p)
		if l < 0 {
			return l
		}
		// Split: which half of the cell the point falls in.
		half := 0
		if math.Mod(p.X-s.Grid.Bounds.Min.X, w) > w/2 || math.Mod(p.Y-s.Grid.Bounds.Min.Y, h) > h/2 {
			half = 1
		}
		split := 2*l + half
		// Merge the co-located halves back together.
		return split / 2
	}
	return c
}

// ProtectedSwapped complements the protected-group label on every
// observation. The default dissimilarity gate is a two-sided test on the
// composition difference and the outcome test never reads the group label,
// so the flagged pair set is symmetric under the swap.
func (s *Scenario) ProtectedSwapped() *Scenario {
	c := s.clone()
	c.Obs = append([]partition.Observation(nil), s.Obs...)
	for i := range c.Obs {
		c.Obs[i].Protected = !c.Obs[i].Protected
	}
	return c
}

// WholeThousandIncomes rounds every income to whole thousands, keeping the
// generator's 12,000 floor — the shape of real HMDA incomes, which are
// reported in thousands. Ties within and across regions abound, the regime
// the Mann–Whitney gate's tie-aware brackets and exact kernel must get
// right; the base scenario's incomes are untouched.
func (s *Scenario) WholeThousandIncomes() *Scenario {
	c := s.clone()
	c.Obs = append([]partition.Observation(nil), s.Obs...)
	for i := range c.Obs {
		c.Obs[i].Income = math.Max(12000, math.Round(c.Obs[i].Income/1000)*1000)
	}
	return c
}

// WithWidenedGap flips up to maxFlips negative outcomes to positive in
// region label j — the advantaged side of a flagged pair — widening the
// pair's outcome gap while leaving incomes and group labels untouched. The
// directional oracle asserts that a flagged pair cannot be unflagged by
// making its disparity worse.
func (s *Scenario) WithWidenedGap(j, maxFlips int) *Scenario {
	c := s.clone()
	c.Obs = append([]partition.Observation(nil), s.Obs...)
	flipped := 0
	for i := range c.Obs {
		if flipped >= maxFlips {
			break
		}
		if !c.Obs[i].Positive && s.Assign(c.Obs[i].Loc) == j {
			c.Obs[i].Positive = true
			flipped++
		}
	}
	return c
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
