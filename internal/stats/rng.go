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

// Binomial returns a draw from Binomial(n, p). Small n uses direct Bernoulli
// summation; large n uses the normal approximation with continuity
// correction, clamped to [0, n]. The Monte-Carlo engine draws millions of
// binomials, so the large-n path matters.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry so the approximation quality is governed by min(p,1-p).
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	mean := float64(n) * p
	if n <= 64 || mean < 30 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*r.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// Split derives a child generator on an independent stream, advancing the
// parent. Splitting is deterministic: the child's stream is a function of the
// parent's state, so (seed, split order) fully determines every stream. Use
// one Split per goroutine — the rngdiscipline analyzer forbids sharing a
// single *RNG across goroutine-spawning closures, and this is the sanctioned
// way to fan a deterministic experiment out over workers.
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

// Exp returns an exponentially distributed variate with rate 1.
func (r *RNG) Exp() float64 {
	return -math.Log(1 - r.Float64())
}
