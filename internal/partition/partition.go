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

	"lcsf/internal/geo"
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
// income must be finite, because every rank kernel and the income sample's
// sort need a totally ordered value. ByGrid, ByAssign and the
// DeltaPartitioning insert and delete paths all drop what fails it, so
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

// IncomeSample returns the region's income sample, sorted ascending (at
// equal incomes, negative outcomes first): every income when the region
// holds at most the sample cap configured at partition time, else the
// cap-many chosen by the seeded rank (see sample.go). The slice is owned by
// the region; callers must not modify it.
func (r *Region) IncomeSample() []float64 {
	if r.sample == nil {
		return nil
	}
	return r.sample.incomes
}

// PositiveIncomeSample returns the incomes of the income sample's members
// whose outcome was positive, sorted ascending. Together with IncomeSample
// it lets the income decomposition in the core package count a bin's
// members and positives with two binary searches each. The slice is owned
// by the region.
func (r *Region) PositiveIncomeSample() []float64 {
	if r.sample == nil {
		return nil
	}
	return r.sample.posIncomes
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

// DefaultIncomeSampleCap is the most observations a region's income sample
// keeps; a larger region keeps those with the smallest seeded rank. Samples
// are stored sorted, so a similarity test over two of them costs O(cap)
// whatever the regions' populations. 500 gives the U test enough power that
// regions passing the strict epsilon gate genuinely have comparable income
// distributions.
const DefaultIncomeSampleCap = 500

// Options tunes aggregation.
type Options struct {
	// IncomeSampleCap bounds the per-region income sample; 0 means
	// DefaultIncomeSampleCap.
	IncomeSampleCap int
	// Seed drives the income sample's rank; aggregation is deterministic
	// given the seed and the multiset of observations.
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
	for i := range p.Regions {
		p.Regions[i].Index = i
		p.Regions[i].Bounds = grid.CellBounds(i)
	}
	cells := grid.Locator()
	p.aggregate(obs, opts, func(loc geo.Point) int {
		if idx, ok := cells.CellIndex(loc); ok {
			return idx
		}
		return -1
	})
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
	for i := range p.Regions {
		p.Regions[i].Index = i
		p.Regions[i].Bounds = geo.EmptyBBox()
	}
	p.aggregate(obs, opts, func(loc geo.Point) int {
		idx := assign(loc)
		if idx >= numCells {
			panic(fmt.Sprintf("partition: assign returned %d for %d cells", idx, numCells))
		}
		if idx >= 0 {
			p.Regions[idx].Bounds = p.Regions[idx].Bounds.Extend(loc)
		}
		return idx
	})
	return p
}

// aggregate counts every placeable observation into the region locate
// names for it, dropping it when that is negative, then selects each
// non-empty region's income sample in a second pass over the placed
// observations.
func (p *Partitioning) aggregate(obs []Observation, opts Options, locate func(geo.Point) int) {
	cells := make([]int32, len(obs)) // obs[k]'s region, or -1
	for k := range obs {
		cells[k] = -1
		if !obs[k].placeable() {
			continue
		}
		if idx := locate(obs[k].Loc); idx >= 0 {
			cells[k] = int32(idx)
			p.count(idx, &obs[k], 1)
		}
	}
	var ks sortKeys
	samplers := make([]sampler, len(p.Regions))
	for i := range p.Regions {
		if r := &p.Regions[i]; r.N > 0 {
			samplers[i] = newSampler(opts.Seed, r.N, r.Positives, opts.cap())
		}
	}
	for k, c := range cells {
		if c >= 0 {
			samplers[c].offer(&obs[k])
		}
	}
	for i := range samplers {
		if p.Regions[i].N > 0 {
			p.Regions[i].sample = samplers[i].finish(&ks)
		}
	}
}

// count adds an observation to region idx's aggregates and the totals, or
// with by = -1 takes it out.
func (p *Partitioning) count(idx int, o *Observation, by int) {
	r := &p.Regions[idx]
	r.N += by
	p.TotalN += by
	if o.Positive {
		r.Positives += by
		p.TotalPositives += by
	}
	if o.Protected {
		r.Protected += by
	} else {
		r.NonProtected += by
	}
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
