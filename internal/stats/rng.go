// Package stats implements the statistical machinery of the LC-spatial-
// fairness framework: a deterministic random number generator, descriptive
// statistics, the normal distribution, the Mann–Whitney U test, the
// two-proportion z-test, binomial likelihoods and likelihood-ratio
// statistics, and Monte-Carlo significance testing.
//
// Everything is built from scratch on the standard library so experiments are
// reproducible bit-for-bit from a seed.
package stats

import "math"

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
	var x uint32
	r.state, x = pcgStep(r.state, r.inc)
	return x
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
	u, s := r.polar()
	return u * math.Sqrt(-2*math.Log(s)/s)
}

// polar draws the polar Box–Muller pair, u and v uniform on (-1, 1) until
// s = u² + v² lies in (0, 1), and returns u and s, stepping r's PCG state in
// locals.
func (r *RNG) polar() (u, s float64) {
	state := r.state
	for {
		var x1, x2 uint32
		state, x1 = pcgStep(state, r.inc)
		state, x2 = pcgStep(state, r.inc)
		u = 2*(float64((uint64(x1)<<32|uint64(x2))>>11)/(1<<53)) - 1 // 2*Float64() - 1
		state, x1 = pcgStep(state, r.inc)
		state, x2 = pcgStep(state, r.inc)
		v := 2*(float64((uint64(x1)<<32|uint64(x2))>>11)/(1<<53)) - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			r.state = state
			return u, s
		}
	}
}

// Binomial returns a draw from Binomial(n, p). Small n uses direct Bernoulli
// summation; large n uses the normal approximation with continuity
// correction, clamped to [0, n]. It is the one-shot form of
// binomialSampler, which the Monte-Carlo engine builds once per (n, p) and
// draws millions of times.
func (r *RNG) Binomial(n int, p float64) int {
	b := newBinomialSampler(n, p)
	return b.draw(r)
}

// binomialSampler draws from Binomial(n, p) with the parameters resolved
// once: the symmetry flip (p > 0.5 draws n minus a draw at 1-p, so the
// approximation quality is governed by min(p, 1-p)), the path, the
// Bernoulli threshold, and the normal path's mean and sd. Every draw
// returns the same int and consumes the same stream as the definition
//
//	p <= 0 or n <= 0: 0;  p >= 1: n;  p > 0.5: n - Binomial(n, 1-p)
//	n <= 64 or mean < 30: #{i < n : r.Float64() < p}
//	otherwise: clamp(int(math.Round(mean + sd*r.NormFloat64())), 0, n)
//
// with mean = n*p and sd = sqrt(mean*(1-p)). The normal path brackets the
// polar factor instead of evaluating its logarithm (see roundBracket).
type binomialSampler struct {
	n    int
	path uint8
	flip bool   // the draw is n minus a draw at 1-p
	thr  uint64 // Bernoulli path: a 53-bit draw x succeeds iff x < thr
	// Normal path: the approximation's moments, and the slack that widens
	// every bracket past the rounding error of both evaluations.
	mean, sd, slack float64
}

const (
	binomialNone      = iota // no draws: 0, or n when flipped
	binomialBernoulli        // one Float64 per trial
	binomialNormal           // one polar normal variate
)

func newBinomialSampler(n int, p float64) binomialSampler {
	if n <= 0 || p <= 0 {
		return binomialSampler{}
	}
	if p >= 1 {
		return binomialSampler{n: n, flip: true}
	}
	b := binomialSampler{n: n}
	q := p
	if p > 0.5 {
		b.flip, q = true, 1-p
	}
	b.mean = float64(n) * q
	if n <= 64 || b.mean < 30 {
		b.path = binomialBernoulli
		// Float64() < q compares x/2^53 with q, both exact, so it is the
		// integer test x < ceil(q*2^53); NaN q succeeds never.
		if q > 0 {
			b.thr = uint64(math.Ceil(q * (1 << 53)))
		}
		return b
	}
	b.path = binomialNormal
	b.sd = math.Sqrt(b.mean * (1 - q))
	// The exact evaluation of mean + sd*u*f and each bracket end are a few
	// roundings of at most 2^-53 relative each (and Log within one ulp)
	// from the real value, together at most 2^-48 of mean + sd*f(1/4096),
	// which bounds every magnitude involved; 2^-40 leaves a 256-fold
	// margin. Once that exceeds half a count no bracket fits, so huge n
	// always take the exact expression, and a NaN p makes the slack NaN,
	// which no bracket check accepts.
	b.slack = (b.mean + b.sd*polarEdges[1]) * 0x1p-40
	return b
}

// draw returns the next Binomial(n, p) draw from r, stepping r's PCG state
// in locals.
//
//lint:hotpath
func (b *binomialSampler) draw(r *RNG) int {
	k := 0
	switch b.path {
	case binomialBernoulli:
		state := r.state
		for i := 0; i < b.n; i++ {
			var hi, lo uint32
			state, hi = pcgStep(state, r.inc)
			state, lo = pcgStep(state, r.inc)
			if (uint64(hi)<<32|uint64(lo))>>11 < b.thr {
				k++
			}
		}
		r.state = state
	case binomialNormal:
		k = b.normal(r)
	}
	if b.flip {
		return b.n - k
	}
	return k
}

// normal is the normal path: one polar Box–Muller variate, as NormFloat64
// draws it, rounded and clamped.
func (b *binomialSampler) normal(r *RNG) int {
	u, s := r.polar()
	k, ok := b.roundBracket(u, s)
	if !ok {
		// The exact expression, written as the one expression the
		// definition evaluates, so any fused multiply-add the compiler
		// forms is the same one.
		k = int(math.Round(b.mean + b.sd*(u*math.Sqrt(-2*math.Log(s)/s))))
	}
	if k < 0 {
		k = 0
	}
	if k > b.n {
		k = b.n
	}
	return k
}

// polarBuckets is the number of equal-width buckets [i/N, (i+1)/N) of the
// polar radius s in (0, 1), and polarEdges[i] = sqrt(-2 ln(i/N) / (i/N)) the
// polar factor at each edge: +Inf at s = 0, 0 at s = 1. 4,096 buckets are a
// 32 KiB table.
const polarBuckets = 4096

var polarEdges = func() (e [polarBuckets + 1]float64) {
	e[0] = math.Inf(1)
	for i := 1; i <= polarBuckets; i++ {
		s := float64(i) / polarBuckets
		e[i] = math.Sqrt(-2 * math.Log(s) / s)
	}
	return e
}()

// roundBracket returns math.Round(mean + sd*u*f(s)), before clamping, where
// f(s) = sqrt(-2 ln s / s) is the polar factor, without evaluating f: f is
// decreasing on (0, 1), so s's bucket brackets it between two table edges,
// and when every bracketed value, widened by slack, rounds to one integer —
// or lies below 0.5, where the clamp makes it 0 — that integer is the
// answer. ok is false — the caller evaluates f — when the bracket straddles
// a rounding boundary. The first bucket's upper edge is +Inf (f is unbounded
// there), which makes an end of the bracket infinite or NaN, and no check
// below accepts either.
func (b *binomialSampler) roundBracket(u, s float64) (k int, ok bool) {
	i := int(s*polarBuckets) & (polarBuckets - 1) // s in (0, 1)
	f1, f0 := polarEdges[i], polarEdges[i+1]
	// The bracket's centre and half-width, so its ends need no ordering by
	// the sign of u.
	a := b.sd * u
	c := b.mean + a*(0.5*(f1+f0))
	w := math.Abs(a)*(0.5*(f1-f0)) + b.slack
	lo, hi := c-w, c+w
	// r is a candidate (truncation is floor wherever the check can pass
	// with r >= 1); every x in [r-0.5, r+0.5) rounds to r when r >= 1, and
	// to at most 0, which the clamp makes 0, when r <= 0.
	r := float64(int64(lo + 0.5))
	if lo >= r-0.5 && hi < r+0.5 {
		return int(r), true
	}
	return 0, false
}

// pcgStep advances a PCG-XSH-RR state by one step and returns the new state
// with the output Uint32 would return.
func pcgStep(state, inc uint64) (uint64, uint32) {
	xorshifted := uint32(((state >> 18) ^ state) >> 27)
	rot := uint32(state >> 59)
	return state*6364136223846793005 + inc, (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
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
