package stats

import "math"

// This file is the bucketed cross-rank kernel behind the audit engine's
// no-ties Mann–Whitney fast path. The classic merge kernel walks two sorted
// samples with a loop-carried dependency — each step's branch (or select)
// waits on the previous step's loads — which caps it near ten cycles per
// element on data the branch predictor cannot memorize. The bucket kernel
// removes the dependency: values become order-preserving integer keys at
// prepare time, every region is summarized by per-bucket prefix counts on a
// shared equi-width grid, and a pair's cross count becomes an independent
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
// and x == y ⇒ same bucket, so the prefix-plus-correction count equals the
// exact cross count and tie detection inspects exactly the candidate bucket.

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
// introduce them), which is all the cross-count kernels require.
func (g RankGrid) Bucket(v float64) int {
	b := int((v - g.Lo) * g.Scale)
	if b < 0 {
		b = 0
	}
	if b >= g.Buckets {
		b = g.Buckets - 1
	}
	return b
}

// RankedSample is one sorted sample prepared for the bucketed cross-rank
// kernels: ordered keys (sentinel-padded), per-element bucket ids, and the
// grid's prefix counts. The audit engine backs these slices with shared
// flat arenas indexed by region ordinal (see core's SoA layout).
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
	// Distinct reports the sample is strictly increasing (no within-sample
	// duplicate values) — a precondition of the no-ties kernels.
	Distinct bool
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
	distinct := true
	var prev uint64
	for i, v := range sorted {
		k := OrderedKey(v)
		if i > 0 && k == prev {
			distinct = false
		}
		prev = k
		rs.Keys[i] = k
		b := g.Bucket(v)
		rs.Buk[i] = int32(b)
		rs.Pre[b+1]++
	}
	rs.Keys[n] = ^uint64(0)
	rs.Keys[n+1] = ^uint64(0)
	for b := 0; b < g.Buckets; b++ {
		rs.Pre[b+1] += rs.Pre[b]
	}
	for gi := 0; gi <= groups; gi++ {
		rs.PreC[gi] = rs.Pre[gi*g.Buckets/groups]
	}
	rs.Distinct = distinct
}

// StrictlyIncreasing reports whether a sorted sample has no duplicate values
// — the within-sample half of the no-ties precondition. (-0.0 and +0.0 count
// as duplicates, matching the tie-grouping of the general rank kernels.)
func StrictlyIncreasing(sorted []float64) bool {
	for i := 1; i < len(sorted); i++ {
		if !(sorted[i-1] < sorted[i]) {
			return false
		}
	}
	return true
}

// CrossCount returns #{(x, y) : x > y} over a's and b's elements, and
// ok=false when some x equals some y (a cross-sample tie), in which case
// cross is meaningless and the caller must use the general tie-aware kernel.
// Both samples must be individually strictly increasing (Distinct) and built
// on the same grid; within-sample duplicates are NOT detected here and would
// silently corrupt the tie-correction term downstream.
//
// The loop is branch-light by construction: per element, two prefix loads,
// two branchless slot probes, and a spill loop whose guard is false for all
// but the rare overfull bucket.
//
//lint:hotpath
func CrossCount(a, b *RankedSample) (cross int, ok bool) {
	n1, n2 := a.N, b.N
	if n1 == 0 || n2 == 0 {
		return 0, true
	}
	xk := a.Keys
	pre := a.Pre
	yb := b.Buk
	yk := b.Keys
	less := 0
	tied := false
	for t := 0; t < n2; t++ {
		bb := yb[t]
		p0 := int(pre[bb])
		p1 := int(pre[bb+1])
		y := yk[t]
		x0 := xk[p0]
		x1 := xk[p0+1]
		l := p0
		if x0 < y {
			l++
		}
		if x1 < y {
			l++
		}
		if x0 == y || x1 == y {
			tied = true
		}
		if p1-p0 > 2 {
			for k := p0 + 2; k < p1; k++ {
				x := xk[k]
				if x < y {
					l++
				} else if x == y {
					tied = true
				}
			}
		}
		less += l
	}
	return n1*n2 - less, !tied
}

// CrossCountNoTies is CrossCount without tie detection, for callers that
// have verified no value occurs twice anywhere in the compared universe
// (the audit engine's global-distinct prepare check). With that guarantee
// the equality probes can never fire, so the kernel drops them.
//
//lint:hotpath
func CrossCountNoTies(a, b *RankedSample) int {
	n1, n2 := a.N, b.N
	if n1 == 0 || n2 == 0 {
		return 0
	}
	xk := a.Keys
	pre := a.Pre
	yb := b.Buk
	yk := b.Keys
	le0, le1 := 0, 0
	t := 0
	for ; t+2 <= n2; t += 2 {
		b0, b1 := yb[t], yb[t+1]
		y0, y1 := yk[t], yk[t+1]
		p00, p01 := int(pre[b0]), int(pre[b0+1])
		p10, p11 := int(pre[b1]), int(pre[b1+1])
		l := p00
		if xk[p00] < y0 {
			l++
		}
		if xk[p00+1] < y0 {
			l++
		}
		le0 += l
		l = p10
		if xk[p10] < y1 {
			l++
		}
		if xk[p10+1] < y1 {
			l++
		}
		le1 += l
		if p01-p00 > 2 {
			for k := p00 + 2; k < p01; k++ {
				if xk[k] < y0 {
					le0++
				}
			}
		}
		if p11-p10 > 2 {
			for k := p10 + 2; k < p11; k++ {
				if xk[k] < y1 {
					le1++
				}
			}
		}
	}
	for ; t < n2; t++ {
		bb := yb[t]
		p0 := int(pre[bb])
		p1 := int(pre[bb+1])
		y := yk[t]
		l := p0
		if xk[p0] < y {
			l++
		}
		if xk[p0+1] < y {
			l++
		}
		if p1-p0 > 2 {
			for k := p0 + 2; k < p1; k++ {
				if xk[k] < y {
					l++
				}
			}
		}
		le0 += l
	}
	return n1*n2 - (le0 + le1)
}

// CrossBounds returns a certain interval [lo, hi] containing the exact cross
// count #{(x, y) : x > y} of the pair, from prefix loads alone: for a partner
// element y in bucket b, the probe's elements in earlier buckets (Pre[b]) are
// certainly below y and those in later buckets certainly not, so summing
// Pre[b] and Pre[b+1] over the partner's elements brackets #{x < y} without
// touching the keys. The interval's width is the number of colocated (same
// bucket) element pairs — a few buckets' worth on a healthy grid — and the
// pass streams only the partner's bucket ids (4 bytes/element against the
// exact kernel's 12), so a caller that can decide its predicate from the
// interval (see TwoSidedPGEGate.DecideRange) skips the exact kernel and
// most of its memory traffic. Valid for any samples on a shared grid, ties or
// not (the interval brackets the no-ties cross count the exact kernels
// compute).
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
// superset of bucket colocation) but still certainly contains the exact
// no-ties cross count, so a caller that can decide its predicate from this
// interval (the common case — see the fast audit cascade) skips both the
// per-element bounds pass and the exact kernel. Both samples must be built on
// the same grid (equal-length PreC tables).
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

// MannWhitneyFromCross finishes the no-ties Mann–Whitney U test from an
// exact cross count #{(x, y) : x > y} for sample sizes n1 (the x side) and
// n2. With no ties anywhere, the first sample's rank sum is exactly
// n1(n1+1)/2 + cross — an integer well inside float64's exact range for any
// in-memory sample — so the result is bit-identical to MannWhitneyUSorted on
// the same data: the general kernel accumulates the same integer rank sum in
// exact float64 steps and finishes through the same arithmetic with a zero
// tie term.
//
//lint:hotpath
func MannWhitneyFromCross(cross, n1, n2 int) MannWhitneyResult {
	if n1 == 0 || n2 == 0 {
		return MannWhitneyResult{U: math.NaN(), Z: math.NaN(), P: math.NaN()}
	}
	rankSum1 := float64(n1)*float64(n1+1)/2 + float64(cross)
	return mannWhitneyFromRankSum(rankSum1, 0, n1, n2)
}
