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

// finish sorts the kept incomes, with ks as the sort's key buffer, and
// returns the sample.
func (s *sampler) finish(ks *sortKeys) *pairedSample {
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
	ks.sort(s.neg)
	ks.sort(s.pos)
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

// radixMinLen is the shortest sample half the radix sort takes; shorter
// ones go to slices.Sort, which costs less than the radix sort's fixed
// histogram work there (BenchmarkSampleSort puts the crossing near 45 on
// normal incomes).
const radixMinLen = 48

// sortKeys is the income sort's key buffer: twice the longest half it has
// sorted, grown once and reused for every region of an aggregation pass or
// of a DeltaPartitioning's refreshes. It is not safe for concurrent use.
type sortKeys struct {
	buf    []uint64
	counts [8][256]uint32 // digit histograms, one per byte of the key

	// sortRecords' buffers: record indices carried through the digit
	// passes (twice the records), and the gather's output.
	idx  []uint32
	recs []Observation
}

// sort sorts xs ascending in place. The result equals slices.Sort's under
// ==, and is a permutation of xs's bits: -0 and +0 keep their signs, with
// every -0 before every +0. A run already in order, which a delta refresh
// hands over, is left as it is after one linear check.
func (ks *sortKeys) sort(xs []float64) {
	if len(xs) < radixMinLen {
		slices.Sort(xs)
		return
	}
	if !isSorted(xs) {
		ks.radix(xs)
	}
}

// radix is an LSD radix sort of xs over orderKey's bytes. xs must hold two
// distinct values, as an unsorted slice does.
func (ks *sortKeys) radix(xs []float64) {
	n := len(xs)
	if cap(ks.buf) < 2*n {
		ks.buf = make([]uint64, 2*n)
	}
	keys, tmp := ks.buf[:n], ks.buf[n:2*n]
	c := &ks.counts
	*c = [8][256]uint32{}
	for i, x := range xs {
		k := orderKey(x)
		keys[i] = k
		c[0][byte(k)]++
		c[1][byte(k>>8)]++
		c[2][byte(k>>16)]++
		c[3][byte(k>>24)]++
		c[4][byte(k>>32)]++
		c[5][byte(k>>40)]++
		c[6][byte(k>>48)]++
		c[7][byte(k>>56)]++
	}
	// One stable counting pass per byte, least significant first. A byte
	// every key shares leaves the order as it is and is skipped; the last
	// pass writes the floats back into xs.
	last := 7
	for c[last][byte(keys[0]>>(8*last))] == uint32(n) {
		last--
	}
	for d := 0; d <= last; d++ {
		shift := uint(8 * d)
		h := &c[d]
		if h[byte(keys[0]>>shift)] == uint32(n) {
			continue
		}
		var sum uint32
		for b, v := range h {
			h[b], sum = sum, sum+v
		}
		if d == last {
			for _, k := range keys {
				b := byte(k >> shift)
				xs[h[b]] = keyFloat(k)
				h[b]++
			}
			return
		}
		for _, k := range keys {
			b := byte(k >> shift)
			tmp[h[b]] = k
			h[b]++
		}
		keys, tmp = tmp, keys
	}
}

// sortRecords sorts os in sampleOrder — by income, -0 and +0 alike, and at
// equal incomes negative outcomes first — without a comparison sort's
// by-value record copies. It radix-sorts the incomes' keys, each carrying
// its record's index, from an index order that lists the negatives ahead of
// the positives; the stable digit passes keep that order among equal
// incomes, so the outcome acts as the tie bit. One gather then moves each
// record once. Records sampleOrder ranks equal keep their input order.
func (ks *sortKeys) sortRecords(os []Observation) {
	n := len(os)
	if n < radixMinLen {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && sampleOrder(&os[j], &os[j-1]); j-- {
				os[j], os[j-1] = os[j-1], os[j]
			}
		}
		return
	}
	if cap(ks.buf) < 2*n {
		ks.buf = make([]uint64, 2*n)
	}
	if cap(ks.idx) < 2*n {
		ks.idx = make([]uint32, 2*n)
	}
	keys, tmp := ks.buf[:n], ks.buf[n:2*n]
	idx, tmpIdx := ks.idx[:n], ks.idx[n:2*n]
	j := 0
	for _, positive := range [2]bool{false, true} {
		for i := range os {
			if os[i].Positive == positive {
				idx[j] = uint32(i)
				j++
			}
		}
	}
	c := &ks.counts
	*c = [8][256]uint32{}
	for j, i := range idx {
		income := os[i].Income
		if income == 0 { //lint:floateq-ok -0 and +0 are one income to sampleOrder
			income = 0
		}
		k := orderKey(income)
		keys[j] = k
		for d := range c {
			c[d][byte(k>>(8*d))]++
		}
	}
	for d := range c {
		shift := uint(8 * d)
		h := &c[d]
		if h[byte(keys[0]>>shift)] == uint32(n) {
			continue // every key shares this byte
		}
		var sum uint32
		for b, v := range h {
			h[b], sum = sum, sum+v
		}
		for j, k := range keys {
			b := byte(k >> shift)
			tmp[h[b]], tmpIdx[h[b]] = k, idx[j]
			h[b]++
		}
		keys, tmp = tmp, keys
		idx, tmpIdx = tmpIdx, idx
	}
	if cap(ks.recs) < n {
		ks.recs = make([]Observation, n)
	}
	out := ks.recs[:n]
	for j, i := range idx {
		out[j] = os[i]
	}
	copy(os, out)
}

// isSorted reports whether xs is ascending under <.
func isSorted(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// orderKey maps a non-NaN float64 to a uint64 whose unsigned order is the
// float order, with -0 just below +0: a negative number's bits are all
// flipped, a positive number's sign bit is set. The map is a bijection,
// undone by keyFloat.
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyFloat is orderKey's inverse.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
