package partition

import (
	"math"
	"slices"
)

// This file holds the one income sampler behind every partitioning: ByGrid,
// ByAssign and DeltaPartitioning all select a region's sample here.
//
// A region's sample is its IncomeSampleCap observations with the smallest
// sampleRank — a seeded hash of the observation's own fields — or every
// observation when the region is at or under the cap. The rank depends on
// nothing but the record, so the sample is a pure function of the region's
// multiset and the seed: row order, the region's label, and for the delta
// layer the history of inserts and deletes, leave no trace. Exact duplicate
// records share a rank and are interchangeable, so which copies fill the last
// places does not change what the sample holds.

// pairedSample is a region's income sample, sorted ascending (equal incomes:
// negative outcome first), with each income's outcome and, on their own, the
// incomes of the members with the positive outcome.
type pairedSample struct {
	incomes    []float64
	pos        []bool
	posIncomes []float64
}

// rankedIncome is one candidate of an over-cap region's sample.
type rankedIncome struct {
	rank     uint64
	income   float64
	positive bool
}

// before is the selection order: rank, then income, then outcome. The sample
// keeps nothing but income and outcome, so candidates that tie on all three
// are interchangeable.
func (a rankedIncome) before(b rankedIncome) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.income != b.income { //lint:floateq-ok deterministic-tie-break
		return a.income < b.income
	}
	return !a.positive && b.positive
}

// sampleRank is an observation's seeded priority: a splitmix64-style mix of
// the seed and every field of the record. It leaves out the region, so
// relabeling a partitioning cannot move a sample. Zero coordinates and
// incomes hash alike whatever their sign, so records equal under == — the
// delta layer's delete match — share a rank.
func sampleRank(seed uint64, o *Observation) uint64 {
	flags := uint64(1)
	if o.Positive {
		flags |= 2
	}
	if o.Protected {
		flags |= 4
	}
	h := mix64(seed ^ 0xD3177A51)
	h = mix64(h ^ floatKey(o.Loc.X))
	h = mix64(h ^ floatKey(o.Loc.Y))
	h = mix64(h ^ floatKey(o.Income))
	return mix64(h ^ flags)
}

func floatKey(x float64) uint64 {
	if x == 0 { //lint:floateq-ok folds -0 into +0
		return 0
	}
	return math.Float64bits(x)
}

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// sampler selects one region's sample from its observations, offered in any
// order. A region at or under the cap keeps every income, split by outcome;
// a region over the cap keeps a cap-sized max-heap in selection order, so
// each offer costs O(1) until the heap fills and O(log cap) after.
type sampler struct {
	seed uint64
	neg  []float64 // negative-outcome incomes; its array becomes the sample's
	pos  []float64 // positive-outcome incomes
	heap []rankedIncome
}

// newSampler sizes a sampler for a region of n observations, positives of
// them with the positive outcome.
func newSampler(seed uint64, n, positives, capN int) sampler {
	if n <= capN {
		return sampler{neg: make([]float64, 0, n), pos: make([]float64, 0, positives)}
	}
	return sampler{seed: seed, heap: make([]rankedIncome, 0, capN)}
}

func (s *sampler) offer(o *Observation) {
	if s.heap == nil {
		if o.Positive {
			s.pos = append(s.pos, o.Income)
		} else {
			s.neg = append(s.neg, o.Income)
		}
		return
	}
	c := rankedIncome{rank: sampleRank(s.seed, o), income: o.Income, positive: o.Positive}
	if len(s.heap) < cap(s.heap) {
		s.heap = append(s.heap, c)
		if len(s.heap) == cap(s.heap) {
			for i := len(s.heap)/2 - 1; i >= 0; i-- {
				s.siftDown(i)
			}
		}
		return
	}
	if c.before(s.heap[0]) {
		s.heap[0] = c
		s.siftDown(0)
	}
}

// siftDown restores the max-heap below position i.
func (s *sampler) siftDown(i int) {
	h := s.heap
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[m].before(h[r]) {
			m = r
		}
		if !h[i].before(h[m]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// finish sorts the kept incomes and returns the sample.
func (s *sampler) finish() *pairedSample {
	if s.heap != nil {
		positives := 0
		for _, c := range s.heap {
			if c.positive {
				positives++
			}
		}
		s.neg = make([]float64, 0, len(s.heap))
		s.pos = make([]float64, 0, positives)
		for _, c := range s.heap {
			if c.positive {
				s.pos = append(s.pos, c.income)
			} else {
				s.neg = append(s.neg, c.income)
			}
		}
	}
	slices.Sort(s.neg)
	slices.Sort(s.pos)
	// Merge from the back, so the negatives, which share the incomes'
	// array, are read before they are overwritten; at equal incomes the
	// positive goes last. Once the positives run out, the negatives left
	// are already in place.
	n := len(s.neg) + len(s.pos)
	incomes, outcomes := s.neg[:n], make([]bool, n)
	i := len(s.neg) - 1
	for j, k := len(s.pos)-1, n-1; j >= 0; k-- {
		if i >= 0 && s.neg[i] > s.pos[j] {
			incomes[k] = s.neg[i]
			i--
		} else {
			incomes[k], outcomes[k] = s.pos[j], true
			j--
		}
	}
	return &pairedSample{incomes: incomes, pos: outcomes, posIncomes: s.pos}
}
