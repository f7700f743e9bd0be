package partition

import (
	"math"
	"sort"

	"lcsf/internal/stats"
)

// RegionSummary is the O(1) statistical digest of one region consumed by the
// audit engine's index-accelerated candidate generation: the exact counts and
// shares the gate metrics test, plus the income-sample moments and range that
// conservative metric bounds are derived from. Every field is computed from
// the same accessors the gate cascade itself uses (PositiveRate,
// ProtectedShare, IncomeSample), so a summary-derived exact bound agrees
// bit-for-bit with the corresponding gate score.
type RegionSummary struct {
	N         int // individuals in the region
	Positives int // individuals with the positive outcome
	Protected int // protected-group individuals

	PositiveRate   float64 // Positives/N (0 for an empty region)
	ProtectedShare float64 // Protected/N (0 for an empty region)

	SampleN        int     // size of the income sample
	IncomeMean     float64 // sample mean (NaN when SampleN == 0)
	IncomeVariance float64 // sample variance (NaN when SampleN < 2)
	IncomeMin      float64 // smallest sampled income (NaN when SampleN == 0)
	IncomeMax      float64 // largest sampled income (NaN when SampleN == 0)
}

// Summarize computes a region's summary. The moments match
// stats.Mean/stats.SampleVariance over IncomeSample exactly, which is what
// keeps moment-based metric bounds (Welch, mean-gap) exact rather than merely
// conservative.
func Summarize(r *Region) RegionSummary {
	sample := r.IncomeSample()
	s := RegionSummary{
		N:              r.N,
		Positives:      r.Positives,
		Protected:      r.Protected,
		PositiveRate:   r.PositiveRate(),
		ProtectedShare: r.ProtectedShare(),
		SampleN:        len(sample),
		IncomeMean:     stats.Mean(sample),
		IncomeVariance: stats.SampleVariance(sample),
		IncomeMin:      math.NaN(),
		IncomeMax:      math.NaN(),
	}
	if len(sample) > 0 {
		s.IncomeMin, s.IncomeMax = sample[0], sample[0]
		for _, v := range sample[1:] {
			if v < s.IncomeMin {
				s.IncomeMin = v
			}
			if v > s.IncomeMax {
				s.IncomeMax = v
			}
		}
	}
	return s
}

// SummaryDim names one sortable key of a RegionSummary. The audit engine's
// candidate windows are intervals over exactly one of these dimensions.
type SummaryDim int

const (
	// DimProtectedShare orders regions by protected-group share.
	DimProtectedShare SummaryDim = iota
	// DimPositiveRate orders regions by local positive rate.
	DimPositiveRate
	// DimIncomeMean orders regions by mean sampled income. Regions with an
	// empty income sample (NaN mean) are excluded from this order.
	DimIncomeMean
	numSummaryDims
)

// SummaryStats aggregates the envelope values conservative per-probe bounds
// need: the extremes a yet-unknown partner region can contribute.
type SummaryStats struct {
	// MaxN is the largest region population among the summarized regions.
	MaxN int
	// MinSampleN is the smallest income-sample size among regions whose
	// sample admits a variance (SampleN >= 2); zero when no region does.
	MinSampleN int
	// MaxMeanSE2 is the largest IncomeVariance/SampleN among regions with
	// SampleN >= 2 — an upper bound on any partner's squared standard error
	// of the mean. Zero when no region qualifies.
	MaxMeanSE2 float64
}

// SummaryIndex holds the summaries of a region set together with sorted 1-D
// orders over each SummaryDim, ready for the audit's sliding-window interval
// joins. The orders are deterministic: ascending by key with ties broken by
// region position.
type SummaryIndex struct {
	// Summaries holds one summary per input region, position-aligned with
	// the input slice.
	Summaries []RegionSummary
	// Stats is the envelope over Summaries.
	Stats SummaryStats

	dims [numSummaryDims]dimOrder
}

// dimOrder is one sorted view: keys ascending, pos[i] the region position
// that contributed keys[i]. Regions whose key is NaN are absent.
type dimOrder struct {
	keys []float64
	pos  []int32
}

// summaryKey extracts a summary's key on one dimension.
func summaryKey(s *RegionSummary, d SummaryDim) float64 {
	switch d {
	case DimProtectedShare:
		return s.ProtectedShare
	case DimPositiveRate:
		return s.PositiveRate
	default:
		return s.IncomeMean
	}
}

// NewSummaryIndex summarizes every region, folds the envelope, and builds
// the sorted orders.
func NewSummaryIndex(regions []*Region) *SummaryIndex {
	ix := &SummaryIndex{Summaries: make([]RegionSummary, len(regions))}
	for i, r := range regions {
		ix.Summaries[i] = Summarize(r)
	}
	ix.refreshStats()
	for d := SummaryDim(0); d < numSummaryDims; d++ {
		ix.dims[d] = buildDimOrder(ix.Summaries, d)
	}
	return ix
}

// refreshStats recomputes the envelope over every summary.
func (ix *SummaryIndex) refreshStats() {
	ix.Stats = SummaryStats{}
	for i := range ix.Summaries {
		s := &ix.Summaries[i]
		if s.N > ix.Stats.MaxN {
			ix.Stats.MaxN = s.N
		}
		if s.SampleN >= 2 {
			if ix.Stats.MinSampleN == 0 || s.SampleN < ix.Stats.MinSampleN {
				ix.Stats.MinSampleN = s.SampleN
			}
			if se2 := s.IncomeVariance / float64(s.SampleN); se2 > ix.Stats.MaxMeanSE2 {
				ix.Stats.MaxMeanSE2 = se2
			}
		}
	}
}

func buildDimOrder(sums []RegionSummary, d SummaryDim) dimOrder {
	o := dimOrder{
		keys: make([]float64, 0, len(sums)),
		pos:  make([]int32, 0, len(sums)),
	}
	for i := range sums {
		k := summaryKey(&sums[i], d)
		if math.IsNaN(k) {
			continue
		}
		o.keys = append(o.keys, k)
		o.pos = append(o.pos, int32(i))
	}
	sort.Sort(&o)
	return o
}

// sort.Interface over the paired (key, pos) slices; ties break by position so
// the order is a pure function of the summaries.
func (o *dimOrder) Len() int { return len(o.keys) }
func (o *dimOrder) Less(i, j int) bool {
	if o.keys[i] != o.keys[j] { //lint:floateq-ok deterministic-tie-break
		return o.keys[i] < o.keys[j]
	}
	return o.pos[i] < o.pos[j]
}
func (o *dimOrder) Swap(i, j int) {
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
	o.pos[i], o.pos[j] = o.pos[j], o.pos[i]
}

// UpdateRegion replaces the summary at position pos with a fresh digest of r
// and repairs every sorted order and the envelope stats, leaving the index
// bit-identical to a fresh NewSummaryIndex over the updated region set.
// Each order finds the region's old and new slots by binary search and
// shifts only the entries between them; the envelope is rescanned, O(R).
// The repair is idempotent, so a retried delta audit can re-apply it
// safely.
func (ix *SummaryIndex) UpdateRegion(pos int, r *Region) {
	old := ix.Summaries[pos]
	ix.Summaries[pos] = Summarize(r)
	for d := SummaryDim(0); d < numSummaryDims; d++ {
		ix.dims[d].update(pos, summaryKey(&old, d), summaryKey(&ix.Summaries[pos], d))
	}
	ix.refreshStats()
}

// update moves position pos from its slot under key old to its slot under
// key, preserving the ascending-by-key, ties-by-position invariant. A NaN
// key means absent, matching buildDimOrder: a NaN old key inserts, a NaN
// new key removes.
func (o *dimOrder) update(pos int, old, key float64) {
	from, to := -1, -1
	if !math.IsNaN(old) {
		from = o.search(pos, old)
	}
	if !math.IsNaN(key) {
		to = o.search(pos, key)
	}
	switch {
	case from < 0 && to < 0:
		return
	case from < 0:
		o.keys = append(o.keys, 0)
		o.pos = append(o.pos, 0)
		copy(o.keys[to+1:], o.keys[to:])
		copy(o.pos[to+1:], o.pos[to:])
	case to < 0:
		o.keys = append(o.keys[:from], o.keys[from+1:]...)
		o.pos = append(o.pos[:from], o.pos[from+1:]...)
		return
	case to > from:
		// The entry moves up; search counted it below its new slot.
		to--
		copy(o.keys[from:to], o.keys[from+1:to+1])
		copy(o.pos[from:to], o.pos[from+1:to+1])
	default:
		copy(o.keys[to+1:from+1], o.keys[to:from])
		copy(o.pos[to+1:from+1], o.pos[to:from])
	}
	o.keys[to] = key
	o.pos[to] = int32(pos)
}

// search returns the first slot whose entry does not sort before (key, pos).
func (o *dimOrder) search(pos int, key float64) int {
	return sort.Search(len(o.keys), func(k int) bool {
		if o.keys[k] != key { //lint:floateq-ok deterministic-tie-break
			return o.keys[k] > key
		}
		return int(o.pos[k]) >= pos
	})
}

// Dim returns the sorted keys and their region positions for one dimension.
// Both slices are owned by the index; callers must not modify them. Regions
// whose key is NaN on this dimension do not appear.
func (ix *SummaryIndex) Dim(d SummaryDim) (keys []float64, pos []int32) {
	return ix.dims[d].keys, ix.dims[d].pos
}
