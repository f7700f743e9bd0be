// Package stats implements the statistical machinery of the LC-spatial-
// fairness framework: a deterministic random number generator, descriptive
// statistics, the normal distribution, the Mann–Whitney U test, the
// two-proportion z-test, binomial likelihoods and likelihood-ratio
// statistics, an exact binomial sampler (CDF inversion, see
// BinomialSampler), and Monte-Carlo significance testing.
//
// Everything is built from scratch on the standard library so experiments are
// reproducible bit-for-bit from a seed.
package stats

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (PCG-XSH-RR 64/32). Distinct streams are selected by the seed; the
// experiments derive one stream per (experiment, lender, grid) tuple so runs
// are reproducible and independent.
//
// RNG is not safe for concurrent use; create one per goroutine.
type RNG struct {
	state uint64
	inc   uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed uint64) {
	// Derive state and stream from the seed with splitmix64 so that nearby
	// seeds produce unrelated streams.
	s := seed
	r.state = splitmix64(&s)
	r.inc = splitmix64(&s) | 1
	r.Uint32()
}

func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next value in the stream.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a 64-bit value built from two 32-bit draws.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation on 32-bit draws is
	// plenty for the sizes used here (n < 2^31).
	if n <= math.MaxInt32 {
		bound := uint32(n)
		threshold := -bound % bound
		for {
			v := r.Uint32()
			if v >= threshold {
				return int(v % bound)
			}
		}
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (polar Box–Muller, using one
// value per call and discarding the pair's second value for simplicity).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// BinomialSampler draws from Binomial(n, p) by inverting its CDF, tabulated
// once per (n, p): each draw takes one 53-bit uniform u from the generator
// and returns the least count k with u < P(K <= k). The table covers a
// window [lo, hi] around the mode, walked outward by the pmf recurrence
// until the mass left outside is provably below 2^-53, the resolution of
// the uniform, so every count a draw can select with appreciable
// probability lies inside it; a Chen–Asau guide table turns the search into
// one probe and a short scan.
//
// n <= 0, p <= 0 and NaN p draw 0, and p >= 1 draws n, without consuming
// the generator.
type BinomialSampler struct {
	lo    int       // the window's first count; the only count when cdf is empty
	cdf   []float64 // cdf[j] = P(K <= lo+j), normalized over the window, last entry 1
	guide []int32   // guide[i] = least j with cdf[j] > i/len(guide)
	shift uint      // a 53-bit uniform x falls in guide bucket x >> shift
}

// binomialTailEps bounds the share of the binomial mass a sampler's window
// leaves out on each side: 2^-56, so both sides together stay below 2^-53
// with a fourfold margin for the rounding of the bound.
const binomialTailEps = 0x1p-56

// NewBinomialSampler returns a sampler for Binomial(n, p).
func NewBinomialSampler(n int, p float64) *BinomialSampler {
	b := &BinomialSampler{}
	b.reset(n, p)
	return b
}

// reset rebuilds b for Binomial(n, p), reusing its tables' memory; after the
// tables have grown to a window's size, rebuilding for a window no wider
// allocates nothing.
//
// The table holds the pmf relative to the mode, r_k = pmf(k)/pmf(mode). The
// ratio of neighbours r_{k+1}/r_k = c·(n-k)/(k+1), c = p/(1-p), falls as k
// rises, and r_{k-1}/r_k = k/(c·(n-k+1)) falls as k falls; so once the next
// ratio s is below 1, the mass beyond the last entry r is at most the
// geometric sum r·s/(1-s). A side stops when that bound falls below
// binomialTailEps of the mass tabulated so far, which is at most the whole
// mass. Each entry costs one division.
func (b *BinomialSampler) reset(n int, p float64) {
	b.lo, b.cdf = 0, b.cdf[:0]
	if n <= 0 || !(p > 0) {
		return
	}
	if p >= 1 {
		b.lo = n
		return
	}
	c := p / (1 - p)
	mode := min(int(float64(n+1)*p), n)
	// Down from the mode, stored in walk order and reversed below.
	r, sum := 1.0, 1.0
	k := mode
	for k > 0 {
		s := float64(k) / (c * float64(n-k+1))
		if s < 1 && r*s <= binomialTailEps*sum*(1-s) {
			break
		}
		r *= s
		sum += r
		k--
		b.cdf = append(b.cdf, r) //lint:hotpathalloc-ok grows the caller's table once per width, reused by every later build
	}
	b.lo = k
	slices.Reverse(b.cdf)
	b.cdf = append(b.cdf, 1) //lint:hotpathalloc-ok as above
	r, k = 1, mode
	for k < n {
		s := c * float64(n-k) / float64(k+1)
		if s < 1 && r*s <= binomialTailEps*sum*(1-s) {
			break
		}
		r *= s
		sum += r
		k++
		b.cdf = append(b.cdf, r) //lint:hotpathalloc-ok as above
	}
	// Prefix sums from the low tail up, normalized by their total.
	acc := 0.0
	for j, v := range b.cdf {
		acc += v
		b.cdf[j] = acc
	}
	inv := 1 / acc
	for j := range b.cdf {
		b.cdf[j] *= inv
	}
	b.cdf[len(b.cdf)-1] = 1 // every uniform, 1-2^-53 included, lands in the window

	// The guide table: 2^g buckets, at least one per entry, so a draw scans
	// fewer than two entries on average.
	g := bits.Len(uint(len(b.cdf) - 1))
	m := 1 << g
	if cap(b.guide) < m {
		b.guide = make([]int32, m) //lint:hotpathalloc-ok grows the caller's guide once per width
	}
	b.guide = b.guide[:m]
	b.shift = uint(53 - g)
	step := 1 / float64(m) // a power of two, so i*step is exact
	j := 0
	for i := range b.guide {
		for b.cdf[j] <= float64(i)*step {
			j++
		}
		b.guide[i] = int32(j)
	}
}

// Window returns the counts [lo, hi] the sampler can draw.
func (b *BinomialSampler) Window() (lo, hi int) {
	return b.lo, b.lo + max(len(b.cdf)-1, 0)
}

// Draw returns the next Binomial(n, p) draw from r.
//
//lint:hotpath
func (b *BinomialSampler) Draw(r *RNG) int {
	if len(b.cdf) == 0 {
		return b.lo
	}
	x := r.Uint64() >> 11
	u := float64(x) / (1 << 53) // r.Float64()
	// Every u in bucket x>>shift is at least the bucket's lower edge, so the
	// answer is at or after the guide's entry for it.
	j := int(b.guide[x>>b.shift])
	for b.cdf[j] <= u {
		j++
	}
	return b.lo + j
}

// Split derives a child generator on an independent stream, advancing the
// parent. Splitting is deterministic: the child's stream is a function of the
// parent's state, so (seed, split order) fully determines every stream. Use
// one Split per goroutine — the rngdiscipline analyzer forbids sharing a
// single *RNG across goroutine-spawning closures, and this is the sanctioned
// way to fan a deterministic experiment out over workers.
//
//lint:deadexport-ok the rngdiscipline analyzer's fix message names it as the sanctioned per-goroutine stream
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Shuffle randomly permutes the first n elements using swap, in the manner of
// sort.Slice's swap callback.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
