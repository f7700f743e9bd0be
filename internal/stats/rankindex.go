package stats

import "math"

// This file is the bucketed cross-rank kernel behind the audit engine's
// Mann–Whitney similarity gate. The classic merge kernel walks two sorted
// samples with a loop-carried dependency — each step's branch (or select)
// waits on the previous step's loads — which caps it near ten cycles per
// element on data the branch predictor cannot memorize. The bucket kernel
// removes the dependency: values become order-preserving integer keys at
// prepare time, every region is summarized by per-bucket prefix counts on a
// shared equi-width grid, and a pair's rank statistic becomes an independent
// per-element lookup
//
//	#{x < y}  =  Pre[bucket(y)]  +  #{x in bucket(y) : x < y}
//
// where the within-bucket correction probes a fixed two slots branchlessly
// (elements of later buckets compare above y and contribute zero on their
// own) plus a rarely-taken spill loop for buckets holding more than two
// elements. Per-element work is a handful of independent loads and integer
// compares, so the out-of-order core overlaps elements instead of waiting on
// a merge cursor.
//
// Exactness does not depend on the grid: any monotone bucketing (including
// values clamped to the edge buckets) keeps bucket(x) < bucket(y) ⇒ x < y
// and x == y ⇒ same bucket, so the prefix-plus-correction count is exact and
// ties are found by inspecting exactly the candidate bucket. The same two
// facts make the prefix tables alone bracket U = #{x > y} + ½#{x = y} (see
// CrossBounds) and the pooled tie term (see MannWhitneyAbsZRange).

// OrderedKey maps a float64 to a uint64 that preserves <, ==, and > for all
// finite and infinite values: the IEEE-754 bit pattern with the sign bit
// flipped for non-negatives and all bits flipped for negatives, and -0.0
// canonicalized to +0.0 first so equal floats always map to equal keys. NaN
// inputs yield unspecified order (callers validate samples upstream).
func OrderedKey(v float64) uint64 {
	if v == 0 { //lint:floateq-ok zero-canonicalization: -0.0 and +0.0 must share a key
		v = 0
	}
	u := math.Float64bits(v)
	if u>>63 == 1 {
		return ^u
	}
	return u | 1<<63
}

// RankGridBuckets is the grid resolution used by the audit engine: fine
// enough that typical region samples leave most buckets holding at most the
// two branchlessly-probed slots, small enough that one region's prefix table
// (4*(RankGridBuckets+1) bytes) stays L1-resident across a probe row.
const RankGridBuckets = 2048

// RankGrid is a shared equi-width value grid. All RankedSamples compared
// against each other must be built on the same grid.
type RankGrid struct {
	Lo      float64
	Scale   float64 // Buckets / (Hi - Lo)
	Buckets int
}

// NewRankGrid builds the grid covering [lo, hi] with the given bucket count.
// ok is false when the span is degenerate (lo >= hi, non-finite bounds, or a
// non-finite scale): cross counts would still be exact on such a grid, but
// every element would land in one bucket and the correction scan would
// degrade to the full merge — callers should fall back to the merge kernels
// instead.
func NewRankGrid(lo, hi float64, buckets int) (RankGrid, bool) {
	if buckets < 1 || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) || !(lo < hi) {
		return RankGrid{}, false
	}
	scale := float64(buckets) / (hi - lo)
	if math.IsInf(scale, 0) || math.IsNaN(scale) || scale <= 0 {
		return RankGrid{}, false
	}
	return RankGrid{Lo: lo, Scale: scale, Buckets: buckets}, true
}

// Bucket returns v's grid bucket, clamped to [0, Buckets-1]. Clamping keeps
// the mapping monotone for values outside the grid's span (delta updates can
// introduce them), which is all the cross-rank kernels require. The clamp
// happens in float64, before the conversion: converting a float beyond the
// int range is implementation-defined in Go (amd64 yields the minimum int),
// which would drop a huge value into bucket 0. NaN lands in bucket 0.
func (g RankGrid) Bucket(v float64) int {
	f := (v - g.Lo) * g.Scale
	if !(f > 0) {
		return 0
	}
	if f >= float64(g.Buckets) {
		return g.Buckets - 1
	}
	return int(f)
}

// RankedSample is one sorted sample prepared for the bucketed cross-rank
// kernels: ordered keys (sentinel-padded), per-element bucket ids, the
// grid's prefix counts, and the sample's own tie structure. The audit engine
// backs these slices with shared flat arenas indexed by region ordinal (see
// core's SoA layout).
type RankedSample struct {
	// Keys holds the N ordered keys ascending, padded with two ^uint64(0)
	// sentinels so the kernels' fixed two-slot probes never read out of
	// bounds. No finite or infinite float maps to the sentinel key, so
	// sentinels can never produce a spurious tie.
	Keys []uint64
	// Buk[i] is the grid bucket of element i.
	Buk []int32
	// Pre[b] counts elements in buckets < b; len(Pre) == Buckets+1. Elements
	// of bucket b occupy Keys[Pre[b]:Pre[b+1]].
	Pre []int32
	// PreC is Pre subsampled at group boundaries — PreC[g] == Pre[g*Buckets/
	// groups] for groups == CoarseGroups(Buckets) — the cache-line-sized
	// digest CrossBoundsCoarse products against instead of streaming Pre.
	PreC []int32
	// N is the sample size.
	N int
	// Ties is the sample's own tie term Σ(t³−t) over its runs of equal
	// values, and MaxRun its longest run (1 when every value is distinct,
	// 0 when the sample is empty). A pair's pooled tie term adds the two
	// samples' Ties to a cross term bounded through MaxRun.
	Ties   int64
	MaxRun int
}

// FillRankedSample builds rs from a sorted sample on grid g, reusing rs's
// slices when they have sufficient capacity (the audit engine hands in views
// of flat arenas; tests may pass a zero RankedSample and let it allocate).
// The sample must be sorted ascending and NaN-free.
func FillRankedSample(g RankGrid, sorted []float64, rs *RankedSample) {
	n := len(sorted)
	if cap(rs.Keys) < n+2 {
		rs.Keys = make([]uint64, n+2)
	}
	if cap(rs.Buk) < n {
		rs.Buk = make([]int32, n)
	}
	if cap(rs.Pre) < g.Buckets+1 {
		rs.Pre = make([]int32, g.Buckets+1)
	}
	groups := CoarseGroups(g.Buckets)
	if cap(rs.PreC) < groups+1 {
		rs.PreC = make([]int32, groups+1)
	}
	rs.Keys = rs.Keys[:n+2]
	rs.Buk = rs.Buk[:n]
	rs.Pre = rs.Pre[:g.Buckets+1]
	rs.PreC = rs.PreC[:groups+1]
	rs.N = n

	for i := range rs.Pre {
		rs.Pre[i] = 0
	}
	var ties int64
	maxRun, run := 0, 0
	var prev uint64
	for i, v := range sorted {
		k := OrderedKey(v)
		if i > 0 && k == prev {
			run++
		} else {
			ties += runTies(run)
			run = 1
		}
		maxRun = max(maxRun, run)
		prev = k
		rs.Keys[i] = k
		b := g.Bucket(v)
		rs.Buk[i] = int32(b)
		rs.Pre[b+1]++
	}
	rs.Ties = ties + runTies(run)
	rs.MaxRun = maxRun
	rs.Keys[n] = ^uint64(0)
	rs.Keys[n+1] = ^uint64(0)
	for b := 0; b < g.Buckets; b++ {
		rs.Pre[b+1] += rs.Pre[b]
	}
	for gi := 0; gi <= groups; gi++ {
		rs.PreC[gi] = rs.Pre[gi*g.Buckets/groups]
	}
}

// runTies is one run's contribution t³−t to a tie term.
func runTies(t int) int64 {
	r := int64(t)
	return r*r*r - r
}

// CrossCount is the exact bucketed Mann–Whitney kernel: it returns twice the
// U statistic of a against b, 2U = 2#{x > y} + #{x = y}, and the pair's
// pooled tie term Σ(t³−t) over the runs of equal values in the union — the
// two integers MannWhitneyUSorted accumulates as floats. Both samples must
// be built on the same grid.
//
// Per partner element y the kernel counts #{x < y} and #{x = y} inside y's
// bucket: two branchless slot probes plus a spill loop whose guard is false
// for all but overfull buckets. A partner value tied with a is consumed with
// its whole run of r equal elements, probed once. The pooled tie term
// expands per value held cx times by a and cy times by b as
// (cx+cy)³−(cx+cy) = (cx³−cx) + (cy³−cy) + 3·cx·cy·(cx+cy): the first two
// parts are the samples' own Ties, and the run adds the third.
//
//lint:hotpath
func CrossCount(a, b *RankedSample) (twoU, ties int64) {
	n1, n2 := a.N, b.N
	ties = a.Ties + b.Ties
	if n1 == 0 || n2 == 0 {
		return 0, ties
	}
	xk := a.Keys
	pre := a.Pre
	yb := b.Buk
	yk := b.Keys
	twoLess, cross := 0, 0 // Σ_y 2#{x<y} + #{x=y}; Σ cx·cy·(cx+cy)
	for t := 0; t < n2; t++ {
		y := yk[t]
		bb := yb[t]
		p0 := int(pre[bb])
		p1 := int(pre[bb+1])
		x0 := xk[p0]
		x1 := xk[p0+1]
		less := p0
		if x0 < y {
			less++
		}
		if x1 < y {
			less++
		}
		eq := 0
		if x0 == y {
			eq++
		}
		if x1 == y {
			eq++
		}
		if p1-p0 > 2 {
			for k := p0 + 2; k < p1; k++ {
				x := xk[k]
				if x < y {
					less++
				} else if x == y {
					eq++
				}
			}
		}
		if eq == 0 {
			twoLess += 2 * less
			continue
		}
		run := 1
		for t+1 < n2 && yk[t+1] == y {
			t++
			run++
		}
		twoLess += run * (2*less + eq)
		cross += eq * run * (eq + run)
	}
	return 2*int64(n1)*int64(n2) - int64(twoLess), ties + 3*int64(cross)
}

// CrossBounds returns a certain interval [lo, hi] containing the pair's
// U = #{x > y} + ½#{x = y}, from prefix loads alone: for a partner element y
// in bucket b, the probe's elements in earlier buckets (Pre[b]) are
// certainly below y and those in later buckets certainly above it, so
// #{x < y} + ½#{x = y} lies between Pre[b] and Pre[b+1] without touching the
// keys (equal values share a bucket). The interval's width is the number of
// colocated (same bucket) element pairs — a bound on the tied pairs, and a
// few buckets' worth on a healthy grid — and the pass streams only the
// partner's bucket ids (4 bytes/element against the exact kernel's 12), so a
// caller that can decide its predicate from the interval (see
// MannWhitneyAbsZRange and TwoSidedPGEGate.DecideRange) skips the exact
// kernel and most of its memory traffic. Valid for any samples on a shared
// grid, ties or not.
//
//lint:hotpath
func CrossBounds(a, b *RankedSample) (lo, hi int) {
	n1, n2 := a.N, b.N
	if n1 == 0 || n2 == 0 {
		return 0, 0
	}
	pre := a.Pre
	yb := b.Buk
	// Two independent accumulator pairs so the adds overlap; the loads are
	// from one hot prefix table plus the partner's sequential bucket ids.
	le0, le1, he0, he1 := 0, 0, 0, 0
	t := 0
	for ; t+2 <= n2; t += 2 {
		b0, b1 := yb[t], yb[t+1]
		le0 += int(pre[b0])
		he0 += int(pre[b0+1])
		le1 += int(pre[b1])
		he1 += int(pre[b1+1])
	}
	if t < n2 {
		bb := yb[t]
		le0 += int(pre[bb])
		he0 += int(pre[bb+1])
	}
	total := n1 * n2
	return total - (he0 + he1), total - (le0 + le1)
}

// RankCoarseGroups is the resolution of the PreC digest: the grid's buckets
// are cut into this many equal groups, making PreC a quarter-kilobyte table
// that stays cache-resident per region while still bracketing a pair's cross
// count tightly enough to decide the common case (see CrossBoundsCoarse).
const RankCoarseGroups = 64

// CoarseGroups returns the PreC group count for a grid with the given bucket
// count: RankCoarseGroups, clamped so a group never spans less than one
// bucket.
func CoarseGroups(buckets int) int {
	if buckets < RankCoarseGroups {
		return buckets
	}
	return RankCoarseGroups
}

// CrossBoundsCoarse is CrossBounds at group resolution, computed from the two
// PreC digests alone. For a partner element y whose bucket falls in group g
// (fine buckets [g*B/G, (g+1)*B/G)), at least PreC_a[g] probe elements are
// certainly below it and at most PreC_a[g+1] are not certainly above, and the
// partner's element count per group is a difference of its own PreC entries —
// so the whole bracket is a histogram product over G groups, touching ~one
// cache line per sample instead of the partner's per-element bucket ids. The
// interval is wider than CrossBounds' (it brackets by group colocation, a
// superset of bucket colocation) but still certainly contains U, so a caller
// that can decide its predicate from this interval (the common case — see
// the audit's similarity gate) skips both the per-element bounds pass and the
// exact kernel. Both samples must be built on the same grid (equal-length
// PreC tables).
//
//lint:hotpath
func CrossBoundsCoarse(a, b *RankedSample) (lo, hi int) {
	n1, n2 := a.N, b.N
	if n1 == 0 || n2 == 0 {
		return 0, 0
	}
	pa, pb := a.PreC, b.PreC
	groups := len(pa) - 1
	le, he := 0, 0
	prevB, prevA := 0, 0 // PreC[0] is 0 by construction
	for g := 1; g <= groups; g++ {
		curB, curA := int(pb[g]), int(pa[g])
		cnt := curB - prevB
		le += cnt * prevA
		he += cnt * curA
		prevB, prevA = curB, curA
	}
	total := n1 * n2
	return total - he, total - le
}

// exactFloatLimit is 2^53: integers below it, and multiples of one half
// below half of it, are exact float64 values.
const exactFloatLimit = 1 << 53

// MannWhitneyFromCross finishes the Mann–Whitney U test from CrossCount's
// integers for sample sizes n1 (the x side) and n2. The first sample's rank
// sum is n1(n1+1)/2 + U, so twice it is an integer; while that and the tie
// term stay below 2^53 the result is bit-identical to MannWhitneyUSorted on
// the same data, whose float accumulation of the same half-integer rank sum
// and integer tie term is then exact. ok is false past that bound — the
// caller must run MannWhitneyUSorted. Empty samples give the NaN result with
// ok true.
//
//lint:hotpath
func MannWhitneyFromCross(twoU, ties int64, n1, n2 int) (MannWhitneyResult, bool) {
	if n1 == 0 || n2 == 0 {
		return mannWhitneyNaN, true
	}
	twoR1 := int64(n1)*int64(n1+1) + twoU
	if twoR1 >= exactFloatLimit || ties >= exactFloatLimit {
		return MannWhitneyResult{}, false
	}
	return mannWhitneyFromRankSum(float64(twoR1)/2, float64(ties), n1, n2), true
}

// MannWhitneyAbsZRange maps a bracket [lo, hi] on the pair's U (from
// CrossBounds or CrossBoundsCoarse) to a closed interval certain to contain
// the |Z| that MannWhitneyFromCross — and so MannWhitneyUSorted — computes.
//
// The pooled tie term T is bracketed too. Every tied cross pair is a
// colocated pair, so there are at most hi−lo of them, and the cross part
// 3Σ cx·cy(cx+cy) of T is at most 3(MaxRun_a+MaxRun_b)·(hi−lo); hence
// T ∈ [Ties_a+Ties_b, Ties_a+Ties_b + 3(MaxRun_a+MaxRun_b)(hi−lo)]. The
// corners run the same float arithmetic as the exact test, and every IEEE
// operation in it is monotone: the continuity-corrected distance from the
// mean is monotone in the rank sum, and σ² is nonincreasing in T. So |Z| is
// at least the nearest rank-sum corner's distance (zero when the bracket
// straddles the mean) over σ at the smallest T, and at most the farther
// corner's distance over σ at the largest T — bounds on the computed value,
// not an approximation of it.
//
// ok is false when the interval cannot be certified: an empty sample, a σ²
// corner at or below zero (the exact test may be degenerate), or a sum at or
// past 2^53 (the exact kernel would not be exact).
//
//lint:hotpath
func MannWhitneyAbsZRange(lo, hi int, a, b *RankedSample) (azMin, azMax float64, ok bool) {
	n1, n2 := a.N, b.N
	if n1 == 0 || n2 == 0 {
		return 0, 0, false
	}
	tieLo := a.Ties + b.Ties
	width, run := int64(hi-lo), int64(a.MaxRun+b.MaxRun)
	if float64(tieLo)+3*float64(run)*float64(width) >= exactFloatLimit {
		return 0, 0, false
	}
	tieHi := tieLo + 3*run*width
	base := int64(n1) * int64(n1+1)
	if tieHi >= exactFloatLimit || base+2*int64(hi) >= exactFloatLimit {
		return 0, 0, false
	}
	sigma2Hi := mannWhitneySigma2(float64(tieHi), n1, n2)
	if sigma2Hi <= 0 {
		return 0, 0, false
	}
	_, dLo := mannWhitneyDiff(float64(base+2*int64(lo))/2, n1, n2)
	_, dHi := mannWhitneyDiff(float64(base+2*int64(hi))/2, n1, n2)
	dLo, dHi = math.Abs(dLo), math.Abs(dHi)
	dMin, dMax := min(dLo, dHi), max(dLo, dHi)
	if total := n1 * n2; 2*lo <= total && 2*hi >= total {
		dMin = 0 // U can sit on the mean
	}
	azMin = dMin / math.Sqrt(mannWhitneySigma2(float64(tieLo), n1, n2))
	azMax = dMax / math.Sqrt(sigma2Hi)
	return azMin, azMax, true
}
