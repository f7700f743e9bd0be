package stats

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// NullStore holds Monte-Carlo null samples of the pairwise likelihood-ratio
// statistic, one per count signature. The null distribution of PairLRT
// depends only on the integer triple (n1, n2, pooledPositives) — both
// regions' counts are drawn from Binomial(n, pooledPositives/(n1+n2)) — so
// every candidate pair sharing a signature shares one simulation, and each
// pair's p-value is a count over one stored sample instead of m fresh worlds.
//
// Determinism: each sample is the key-seeded fill FillPairNull sorts, seeded
// purely from the store seed and the normalized key, so the sample — and
// every p-value derived from it — is a function of (seed, worlds, key)
// alone, independent of which goroutine fills it, of arrival order, and of
// whether the store kept it.
//
// A sample is filled the first time a lookup asks for it and is never
// evicted. The filling lookup counts exceedances linearly over the unsorted
// sample; the sample is sorted in place only when a second lookup of the key
// arrives, and that lookup and every later one binary-search it. Most
// signatures of a one-shot audit are looked up once, so most samples are
// never sorted. The store keeps at most nullStoreMax samples; past that
// bound a lookup of a new key fills the caller's scratch buffer, answers
// from it by count, and keeps nothing. The store is safe for concurrent use:
// lookups of stored keys take one shard read lock and touch no shared
// counters.
type NullStore struct {
	seed   uint64
	worlds int
	stored atomic.Int64 // samples kept, at most nullStoreMax

	shards [nullStoreShards]nullStoreShard
}

// nullStoreMax bounds the samples a store keeps: 2048 samples at the
// paper's m = 999 is ~16 MiB, above the distinct signatures a full-volume
// LAR audit needs and bounded for audits whose regions never repeat one.
const nullStoreMax = 2048

// nullStoreShards spreads lock contention; must be a power of two.
const nullStoreShards = 16

type nullStoreShard struct {
	mu      sync.RWMutex
	entries map[pairNullKey]*nullEntry //lint:guardedby mu
}

// pairNullKey is the normalized store key: n1 <= n2 (the null is symmetric in
// the two regions' sizes given the pooled count).
type pairNullKey struct {
	n1, n2          int
	pooledPositives int
}

type nullEntry struct {
	fillOnce sync.Once // fills sample and answers the filling lookup by count
	sortOnce sync.Once // sorts sample in place for the second lookup on
	sample   []float64 // null statistics, length = worlds; ascending once sortOnce ran
}

// NewNullStore returns an empty store producing worlds-long null samples
// seeded from seed.
func NewNullStore(seed uint64, worlds int) *NullStore {
	s := &NullStore{seed: seed, worlds: worlds}
	for i := range s.shards {
		s.shards[i].entries = make(map[pairNullKey]*nullEntry) //lint:locksafe-ok constructor: no concurrent access before the store is returned
	}
	return s
}

// PValue returns the add-one Monte-Carlo p-value of an observed statistic
// against the null sample for (n1, n2, pooledPositives):
//
//	p = (1 + #{tau_null >= observed}) / (m + 1)
//
// — the same estimator as MonteCarloP. The lookup that fills a sample
// answers by a linear count over it; later lookups of a stored key answer by
// binary search over the sample, sorted once on the first of them. Both
// count the same elements for every observed value, NaN and ±Inf included
// (NaN exceeds nothing, and sort.Float64s places NaN statistics first,
// where no search lands), so p does not depend on which lookup came first.
// filled reports whether this call simulated the sample: true exactly once
// per stored key, and on every lookup of a key the full store could not
// keep, which is filled into *scratch (grown to m when shorter). The
// returned p is deterministic in (seed, worlds, key, observed) either way.
//
//lint:hotpath
func (s *NullStore) PValue(n1, n2, pooledPositives int, observed float64, scratch *[]float64) (p float64, filled bool) {
	if s.worlds <= 0 {
		return 1, false
	}
	key := newPairNullKey(n1, n2, pooledPositives)
	sh := &s.shards[nullKeyHash(key)&(nullStoreShards-1)]
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	if e == nil {
		if e = s.insert(sh, key); e == nil {
			if cap(*scratch) < s.worlds {
				*scratch = make([]float64, s.worlds) //lint:hotpathalloc-ok grows the caller's scratch once, reused by every later overflow fill
			}
			buf := (*scratch)[:s.worlds]
			fillPairNull(buf, s.seed, key)
			return countP(buf, observed), true
		}
	}
	e.fillOnce.Do(func() { //lint:hotpathalloc-ok one simulation per stored key, amortized over all later lookups
		e.sample = make([]float64, s.worlds)
		fillPairNull(e.sample, s.seed, key)
		p, filled = countP(e.sample, observed), true
	})
	if filled {
		return p, true
	}
	e.sortOnce.Do(func() { //lint:hotpathalloc-ok one sort per stored key, on its second lookup; later lookups skip it
		sort.Float64s(e.sample)
	})
	return exceedanceP(e.sample, observed), false
}

// insert adds an empty entry for key unless another goroutine already did,
// returning nil when the store is full.
func (s *NullStore) insert(sh *nullStoreShard, key pairNullKey) *nullEntry { //lint:hotpathalloc-ok once per stored key, amortized
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[key]; e != nil {
		return e
	}
	if s.stored.Add(1) > nullStoreMax {
		s.stored.Add(-1)
		return nil
	}
	e := &nullEntry{}
	sh.entries[key] = e
	return e
}

// countP is the add-one estimator over a null sample in any order, counting
// exceedances the way MonteCarloP does.
func countP(sample []float64, observed float64) float64 {
	geq := 0
	for _, v := range sample {
		if v >= observed {
			geq++
		}
	}
	return float64(1+geq) / float64(len(sample)+1)
}

// exceedanceP is the add-one estimator over an ascending null sample.
func exceedanceP(sorted []float64, observed float64) float64 {
	idx := sort.SearchFloat64s(sorted, observed) // first index with value >= observed
	return float64(1+len(sorted)-idx) / float64(len(sorted)+1)
}

// newPairNullKey normalizes a key so n1 <= n2.
func newPairNullKey(n1, n2, pooledPositives int) pairNullKey {
	if n1 > n2 {
		n1, n2 = n2, n1
	}
	return pairNullKey{n1: n1, n2: n2, pooledPositives: pooledPositives}
}

// FillPairNull fills dst with the sorted null sample of the pairwise LRT
// statistic for the key (n1, n2, pooledPositives) under store seed — one
// world per element of dst, drawn in a single batched pass and sorted
// ascending. It is the allocation-free core of NullStore: a store
// constructed with this seed and worlds == len(dst) answers every lookup of
// the key from exactly these values, whether it keeps them or fills a
// caller's scratch buffer past its bound. The key is normalized (n1 <= n2)
// exactly as the store normalizes it.
func FillPairNull(dst []float64, seed uint64, n1, n2, pooledPositives int) {
	fillPairNull(dst, seed, newPairNullKey(n1, n2, pooledPositives))
	sort.Float64s(dst)
}

// fillPairNull is FillPairNull without the sort: dst holds the worlds in
// stream order.
func fillPairNull(dst []float64, seed uint64, key pairNullKey) {
	if len(dst) == 0 {
		return
	}
	if key.n1 <= 0 {
		// PairLRT scores every world of an empty region 0, whatever is drawn.
		clear(dst)
		return
	}
	var rng RNG
	rng.Seed(nullCacheSeed(seed, key))
	pooledRate := float64(key.pooledPositives) / float64(key.n1+key.n2)
	fillPairNullTabled(dst, &rng, key.n1, key.n2, pooledRate)
}

// nullTableSize is the entry count of each of fillPairNullTabled's tables.
const nullTableSize = 2049

// fillPairNullTabled is fillPairNull's inner loop. Within one fill the
// region sizes are fixed, so every logarithm PairLRT evaluates is a function
// of the drawn counts alone: the alternative-hypothesis terms depend only on
// k1 (respectively k2), and the null terms only on the pooled sum s = k1+k2.
// The tables memoize those values lazily — each entry is computed by the
// exact expression PairLRT uses, and the statistic is assembled with the
// same operations in the same order, so every world is bit-identical to
// pairNullDraw's; only repeated math.Log evaluations are saved (the draws
// concentrate around the binomial mean, so a fill of m worlds touches far
// fewer than m distinct entries). Each table covers a window of
// nullTableSize counts around its binomial mean — all of [0, n] when that
// fits — and a draw outside the window is computed directly by the same
// expression. The tables live on the stack, keeping the fill
// allocation-free.
func fillPairNullTabled(dst []float64, rng *RNG, n1, n2 int, pooledRate float64) {
	n := n1 + n2
	var la1, la2 altLogTable // MaxBernoulliLogLik(k, n1|n2)
	var ls pooledLogTable    // Log(pooled), Log(1-pooled) by s
	la1.lo = nullTableLo(n1, pooledRate)
	la2.lo = nullTableLo(n2, pooledRate)
	ls.lo = nullTableLo(n, pooledRate)
	for i := range dst {
		k1 := rng.Binomial(n1, pooledRate)
		k2 := rng.Binomial(n2, pooledRate)
		lp, lq := ls.at(k1+k2, n)
		// BernoulliLogLik(k, n, rho) with rho in (0,1) guaranteed whenever a
		// guarded term is taken: k > 0 implies s > 0 and n-k > 0 implies
		// s < n, so the -Inf branches are unreachable and each term reduces
		// to the same guarded multiply-adds, from the same zero value.
		var b1, b2 float64
		if k1 > 0 {
			b1 = float64(k1) * lp
		}
		if n1-k1 > 0 {
			b1 += float64(n1-k1) * lq
		}
		if k2 > 0 {
			b2 = float64(k2) * lp
		}
		if n2-k2 > 0 {
			b2 += float64(n2-k2) * lq
		}
		dst[i] = LogLikRatio(b1+b2, la1.at(k1, n1)+la2.at(k2, n2))
	}
}

// nullTableLo places a table window of nullTableSize counts for draws from
// Binomial(n, rate): at 0 when [0, n] fits, else centred on the mean and
// kept inside [0, n].
func nullTableLo(n int, rate float64) int {
	if n < nullTableSize {
		return 0
	}
	lo := int(float64(n)*rate) - nullTableSize/2
	if lo > n+1-nullTableSize {
		lo = n + 1 - nullTableSize
	}
	if lo < 0 {
		lo = 0
	}
	return lo
}

// altLogTable memoizes MaxBernoulliLogLik(k, n) for k in [lo, lo+nullTableSize).
type altLogTable struct {
	lo int
	v  [nullTableSize]float64
	ok [nullTableSize]bool
}

func (t *altLogTable) at(k, n int) float64 {
	j := uint(k - t.lo)
	if j >= nullTableSize {
		return MaxBernoulliLogLik(k, n)
	}
	if !t.ok[j] {
		t.v[j], t.ok[j] = MaxBernoulliLogLik(k, n), true
	}
	return t.v[j]
}

// pooledLogTable memoizes pooledLogs(s, n) for s in [lo, lo+nullTableSize).
type pooledLogTable struct {
	lo     int
	lp, lq [nullTableSize]float64
	ok     [nullTableSize]bool
}

func (t *pooledLogTable) at(s, n int) (lp, lq float64) {
	j := uint(s - t.lo)
	if j >= nullTableSize {
		return pooledLogs(s, n)
	}
	if !t.ok[j] {
		t.lp[j], t.lq[j] = pooledLogs(s, n)
		t.ok[j] = true
	}
	return t.lp[j], t.lq[j]
}

// pooledLogs returns Log(rho) and Log(1-rho) at the pooled rate rho = s/n,
// the two logarithms BernoulliLogLik takes under PairLRT's null.
func pooledLogs(s, n int) (lp, lq float64) {
	rho := float64(s) / float64(n)
	return math.Log(rho), math.Log(1 - rho)
}

// NullCacheReferenceP computes, with no store at all, the p-value a
// NullStore constructed with the same seed and worlds returns for the key
// (n1, n2, pooledPositives) at the observed statistic. It re-derives the
// key-seeded stream and counts exceedances directly, so it is the oracle the
// verification harness fuzzes NullStore against: stored and past-bound
// lookups must both be bit-identical to this reference.
func NullCacheReferenceP(seed uint64, worlds, n1, n2, pooledPositives int, observed float64) float64 {
	if worlds <= 0 {
		return 1
	}
	key := newPairNullKey(n1, n2, pooledPositives)
	rng := NewRNG(nullCacheSeed(seed, key))
	pooledRate := float64(key.pooledPositives) / float64(key.n1+key.n2)
	return PairMonteCarloP(rng, observed, worlds, key.n1, key.n2, pooledRate)
}

// nullCacheSeed derives a sample's RNG seed from the store seed and the
// normalized key — an FNV-style mix over the three key integers.
func nullCacheSeed(seed uint64, key pairNullKey) uint64 {
	h := seed ^ 0x9E2AC4F1D7
	h = h*0x100000001b3 ^ uint64(key.n1)
	h = h*0x100000001b3 ^ uint64(key.n2)
	h = h*0x100000001b3 ^ uint64(key.pooledPositives)
	return h
}

// nullKeyHash spreads keys across shards (distinct from nullCacheSeed so
// shard placement and stream seeding are uncorrelated).
func nullKeyHash(key pairNullKey) uint64 {
	h := uint64(0x517cc1b727220a95)
	h = (h ^ uint64(key.n1)) * 0x2545F4914F6CDD1D
	h = (h ^ uint64(key.n2)) * 0x2545F4914F6CDD1D
	h = (h ^ uint64(key.pooledPositives)) * 0x2545F4914F6CDD1D
	return h ^ h>>32
}
