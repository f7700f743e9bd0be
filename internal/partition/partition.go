// Package partition aggregates individual observations into spatial regions.
//
// The LC-spatial-fairness framework (and every baseline it is compared with)
// consumes per-region aggregates: how many individuals fall in the region,
// how many received the positive outcome, how many belong to the protected
// and non-protected groups, and a sample of the non-protected attribute for
// the similarity test. This package computes those aggregates for grid
// partitionings and for arbitrary (including adversarially redrawn)
// partitionings.
package partition

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"lcsf/internal/geo"
	"lcsf/internal/stats"
)

// Observation is one individual-level record: where the individual is, what
// outcome the model assigned, whether the individual belongs to the legally
// protected group, and the value of the non-protected attribute of interest
// (income throughout the paper's experiments).
type Observation struct {
	Loc       geo.Point
	Positive  bool
	Protected bool
	Income    float64
}

// placeable reports whether an observation can enter a partitioning: its
// income must be finite, because every rank kernel and the delta layer's
// canonical sample order need a totally ordered value. ByGrid, ByAssign and
// the DeltaPartitioning insert and delete paths all drop what fails it, so
// batch and delta partitionings of the same records agree.
func (o Observation) placeable() bool {
	return !math.IsNaN(o.Income) && !math.IsInf(o.Income, 0)
}

// Region holds the aggregates of one partition.
type Region struct {
	Index        int      // cell index within the partitioning
	Bounds       geo.BBox // cell footprint (empty for custom partitionings)
	N            int      // individuals in the region
	Positives    int      // individuals with the positive outcome
	Protected    int      // n_G: protected-group individuals
	NonProtected int      // n_V: non-protected-group individuals
	sample       *pairedSample
}

// pairedSample is a uniform reservoir (Algorithm R) over (income, outcome)
// observations, kept in parallel slices so IncomeSample returns a live slice
// with no per-call allocation.
type pairedSample struct {
	incomes []float64
	pos     []bool
	seen    int
	cap     int
	rng     *stats.RNG

	// Sorted-view caches behind SortedIncomeSample and
	// SortedPositiveIncomeSample: each is rebuilt when the sample has
	// admitted observations since it was last built (its *Seen trails
	// seen). The mutex only guards the caches — aggregation itself is
	// single-goroutine per partitioning.
	mu            sync.Mutex
	sorted        []float64
	sortedSeen    int
	sortedPos     []float64
	sortedPosSeen int
}

// sortedIncomes returns the sample's incomes sorted ascending, building (or
// rebuilding, if the reservoir admitted observations since) the cached copy.
func (s *pairedSample) sortedIncomes() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted == nil || s.sortedSeen != s.seen {
		s.sorted = append(s.sorted[:0], s.incomes...)
		sort.Float64s(s.sorted)
		s.sortedSeen = s.seen
	}
	return s.sorted
}

// sortedPositiveIncomes returns the incomes of the sample's members with
// the positive outcome, sorted ascending, cached like sortedIncomes. The
// cache is never nil once built, so a sample without positives is not
// rebuilt on every call.
func (s *pairedSample) sortedPositiveIncomes() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sortedPos == nil || s.sortedPosSeen != s.seen {
		n := 0
		for _, p := range s.pos {
			if p {
				n++
			}
		}
		sorted := make([]float64, 0, n)
		for i, p := range s.pos {
			if p {
				sorted = append(sorted, s.incomes[i])
			}
		}
		sort.Float64s(sorted)
		s.sortedPos, s.sortedPosSeen = sorted, s.seen
	}
	return s.sortedPos
}

func newPairedSample(capacity int, rng *stats.RNG) *pairedSample {
	return &pairedSample{
		incomes: make([]float64, 0, capacity),
		pos:     make([]bool, 0, capacity),
		cap:     capacity,
		rng:     rng,
	}
}

func (s *pairedSample) add(income float64, positive bool) {
	s.seen++
	if len(s.incomes) < s.cap {
		s.incomes = append(s.incomes, income)
		s.pos = append(s.pos, positive)
		return
	}
	if j := s.rng.Intn(s.seen); j < s.cap {
		s.incomes[j] = income
		s.pos[j] = positive
	}
}

// PositiveRate returns the region's local positive rate p(r)/n(r), or 0 for
// an empty region.
func (r *Region) PositiveRate() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Positives) / float64(r.N)
}

// ProtectedShare returns the fraction of the region's individuals in the
// protected group, or 0 for an empty region.
func (r *Region) ProtectedShare() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Protected) / float64(r.N)
}

// IncomeSample returns a uniform sample of the region's income observations
// (at most the sample cap configured at partition time). The slice is owned
// by the region; callers must not modify it.
func (r *Region) IncomeSample() []float64 {
	if r.sample == nil {
		return nil
	}
	return r.sample.incomes
}

// SortedIncomeSample returns the region's income sample sorted ascending —
// the same observations as IncomeSample, reordered. The sorted copy is
// computed on first call and cached (rebuilt if the region aggregates more
// observations afterwards), so audits that compare each region against many
// others sort each sample once instead of once per comparison. The slice is
// owned by the region; callers must not modify it. Safe for concurrent
// callers once aggregation is complete.
func (r *Region) SortedIncomeSample() []float64 {
	if r.sample == nil {
		return nil
	}
	return r.sample.sortedIncomes()
}

// SortedPositiveIncomeSample returns the incomes of the income sample's
// members whose outcome was positive, sorted ascending. Like
// SortedIncomeSample it is computed on first call and cached, shares that
// cache's staleness rule, is owned by the region, and is safe for
// concurrent callers once aggregation is complete. Together the two sorted
// views let the income decomposition in the core package count a bin's
// members and positives with two binary searches each.
func (r *Region) SortedPositiveIncomeSample() []float64 {
	if r.sample == nil {
		return nil
	}
	return r.sample.sortedPositiveIncomes()
}

// OutcomeSample returns the outcomes paired with IncomeSample, index for
// index: OutcomeSample()[i] is the outcome of the individual whose income is
// IncomeSample()[i]. The slice is owned by the region.
//
//lint:deadexport-ok the core package's income-decomposition tests re-bin the paired outcomes as their oracle
func (r *Region) OutcomeSample() []bool {
	if r.sample == nil {
		return nil
	}
	return r.sample.pos
}

// Partitioning is a set of regions covering a space, together with global
// totals.
type Partitioning struct {
	Grid    geo.Grid // zero Grid for custom partitionings
	Regions []Region // one per cell, including empty cells

	TotalN         int // N: individuals across the whole space
	TotalPositives int // P: positive outcomes across the whole space
}

// DefaultIncomeSampleCap bounds the per-region income reservoir so the
// Mann–Whitney similarity test costs O(cap log cap) regardless of region
// population. 500 gives the U test enough power that regions passing the
// strict epsilon gate genuinely have comparable income distributions.
const DefaultIncomeSampleCap = 500

// Options tunes aggregation.
type Options struct {
	// IncomeSampleCap bounds the per-region income sample; 0 means
	// DefaultIncomeSampleCap.
	IncomeSampleCap int
	// Seed drives reservoir sampling; aggregation is deterministic given the
	// seed and observation order.
	Seed uint64
}

func (o Options) cap() int {
	if o.IncomeSampleCap <= 0 {
		return DefaultIncomeSampleCap
	}
	return o.IncomeSampleCap
}

// ByGrid aggregates the observations into the cells of grid. Observations
// outside the grid bounds are dropped (they are also outside the audited
// region R), and so are observations with a non-finite income.
func ByGrid(grid geo.Grid, obs []Observation, opts Options) *Partitioning {
	p := &Partitioning{Grid: grid, Regions: make([]Region, grid.NumCells())}
	rng := stats.NewRNG(opts.Seed ^ 0x9A9717)
	capN := opts.cap()
	for i := range p.Regions {
		p.Regions[i].Index = i
		p.Regions[i].Bounds = grid.CellBounds(i)
	}
	for _, o := range obs {
		if !o.placeable() {
			continue
		}
		idx, ok := grid.CellIndex(o.Loc)
		if !ok {
			continue
		}
		p.add(idx, o, capN, rng)
	}
	return p
}

// ByAssign aggregates the observations into numCells regions using an
// arbitrary assignment function: assign returns the region index for an
// observation, or a negative value to drop it; observations with a
// non-finite income are dropped before assign sees them. This is the entry
// point for adversarially redrawn partitionings in the MAUP experiments. It
// panics if assign returns an index >= numCells, which is a programming error
// in the caller's partition definition.
func ByAssign(numCells int, assign func(geo.Point) int, obs []Observation, opts Options) *Partitioning {
	p := &Partitioning{Regions: make([]Region, numCells)}
	rng := stats.NewRNG(opts.Seed ^ 0x9A9717)
	capN := opts.cap()
	for i := range p.Regions {
		p.Regions[i].Index = i
		p.Regions[i].Bounds = geo.EmptyBBox()
	}
	for _, o := range obs {
		if !o.placeable() {
			continue
		}
		idx := assign(o.Loc)
		if idx < 0 {
			continue
		}
		if idx >= numCells {
			panic(fmt.Sprintf("partition: assign returned %d for %d cells", idx, numCells))
		}
		p.add(idx, o, capN, rng)
		p.Regions[idx].Bounds = p.Regions[idx].Bounds.Extend(o.Loc)
	}
	return p
}

func (p *Partitioning) add(idx int, o Observation, capN int, rng *stats.RNG) {
	r := &p.Regions[idx]
	r.N++
	p.TotalN++
	if o.Positive {
		r.Positives++
		p.TotalPositives++
	}
	if o.Protected {
		r.Protected++
	} else {
		r.NonProtected++
	}
	if r.sample == nil {
		r.sample = newPairedSample(capN, rng)
	}
	r.sample.add(o.Income, o.Positive)
}

// GlobalRate returns the overall positive rate P/N, or 0 when empty.
func (p *Partitioning) GlobalRate() float64 {
	if p.TotalN == 0 {
		return 0
	}
	return float64(p.TotalPositives) / float64(p.TotalN)
}

// NonEmpty returns the indices of regions with at least minN individuals.
func (p *Partitioning) NonEmpty(minN int) []int {
	if minN < 1 {
		minN = 1
	}
	var out []int
	for i := range p.Regions {
		if p.Regions[i].N >= minN {
			out = append(out, i)
		}
	}
	return out
}
