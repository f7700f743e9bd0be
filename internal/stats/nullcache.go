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
// Only p-values at or below the store's cut — the audit's flag threshold —
// are ever observable, so the store simulates only the worlds a verdict
// needs. A key's first lookup draws worlds in stream order until its
// exceedance count proves p > cut, and answers either the exact p or the
// one canonical above-cut value (1+stop)/(m+1). The entry keeps its stream
// position; the key's second lookup draws the remaining worlds and sorts
// the sample, and that lookup and every later one binary-search it. Every
// lookup, whatever its order, answers the exact add-one p-value when it is
// at most cut and the canonical value otherwise.
//
// Determinism: each sample is seeded purely from the store seed and the
// normalized key, so the sample — and every p-value derived from it — is a
// function of (seed, worlds, cut, key) alone, independent of which goroutine
// fills it, of arrival order, and of whether the store kept it.
//
// Samples are never evicted. The store keeps at most nullStoreMax samples;
// past that bound a lookup of a new key fills the caller's scratch buffer,
// answers from it by count (stopping at the cut as a first lookup does), and
// keeps nothing. The store is safe for concurrent use: lookups of stored
// keys take one shard read lock and touch no shared counters.
type NullStore struct {
	seed   uint64
	worlds int
	stop   int          // exceedances proving p > cut: mcStopCount(worlds, cut)
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
	fillOnce     sync.Once // draws the first lookup's prefix and answers it by count
	completeOnce sync.Once // draws the remaining worlds and sorts, for the second lookup on
	rng          RNG       // the key's stream, positioned after the prefix
	drawn        int       // worlds the first lookup drew
	sample       []float64 // length worlds; [:drawn] in stream order, all of it ascending once completeOnce ran
}

// NewNullStore returns an empty store producing worlds-long null samples
// seeded from seed, answering exactly only the p-values at or below cut
// (a cut of 1 or more answers every p-value exactly).
func NewNullStore(seed uint64, worlds int, cut float64) *NullStore {
	s := &NullStore{seed: seed, worlds: worlds, stop: mcStopCount(worlds, cut)}
	for i := range s.shards {
		s.shards[i].entries = make(map[pairNullKey]*nullEntry) //lint:locksafe-ok constructor: no concurrent access before the store is returned
	}
	return s
}

// mcStopCount returns the least exceedance count g in [0, m] whose add-one
// p-value (1+g)/(m+1) exceeds cut — the flag predicate p <= cut negated —
// or m+1 when no count does. The p-value is nondecreasing in g, so g
// exceedances among any prefix of the m worlds prove p > cut exactly when
// g >= mcStopCount(m, cut).
func mcStopCount(m int, cut float64) int {
	lo, hi := 0, m+1
	for lo < hi {
		g := int(uint(lo+hi) >> 1)
		if float64(1+g)/float64(m+1) > cut {
			hi = g
		} else {
			lo = g + 1
		}
	}
	return lo
}

// PValue returns the add-one Monte-Carlo p-value of an observed statistic
// against the null sample for (n1, n2, pooledPositives):
//
//	p = (1 + #{tau_null >= observed}) / (m + 1)
//
// — the paper's add-one estimator — when that p is at most the store's
// cut, and the canonical above-cut value (1+stop)/(m+1) otherwise. The
// first lookup of a key answers by a linear count over the worlds it draws;
// later lookups answer by binary search over the completed sample. Both
// count the same elements for every observed value, NaN and ±Inf included
// (NaN exceeds nothing, and sort.Float64s places NaN statistics first,
// where no search lands), so p does not depend on which lookup came first.
//
// drawn is the number of worlds this call simulated: the first lookup's
// prefix, the second lookup's completion, and zero after. filled reports
// whether this call was the key's first lookup: true exactly once per
// stored key, and on every lookup of a key the full store could not keep,
// which is filled into *scratch (grown to m when shorter). The returned p
// is deterministic in (seed, worlds, cut, key, observed) either way.
//
//lint:hotpath
func (s *NullStore) PValue(n1, n2, pooledPositives int, observed float64, scratch *[]float64) (p float64, drawn int, filled bool) {
	if s.worlds <= 0 {
		return 1, 0, false
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
			var rng RNG
			rng.Seed(nullCacheSeed(s.seed, key))
			drawn, geq := fillNull((*scratch)[:s.worlds], &rng, key, observed, s.stop)
			return s.estimate(geq), drawn, true
		}
	}
	e.fillOnce.Do(func() { //lint:hotpathalloc-ok one prefix per stored key, amortized over all later lookups
		e.sample = make([]float64, s.worlds)
		e.rng.Seed(nullCacheSeed(s.seed, key))
		var geq int
		e.drawn, geq = fillNull(e.sample, &e.rng, key, observed, s.stop)
		p, drawn, filled = s.estimate(geq), e.drawn, true
	})
	if filled {
		return p, drawn, true
	}
	e.completeOnce.Do(func() { //lint:hotpathalloc-ok one completion per stored key, on its second lookup; later lookups skip it
		drawn, _ = fillNull(e.sample[e.drawn:], &e.rng, key, 0, math.MaxInt)
		sort.Float64s(e.sample)
	})
	idx := sort.SearchFloat64s(e.sample, observed) // first index with value >= observed
	return s.estimate(s.worlds - idx), drawn, false
}

// estimate is the add-one estimator for geq exceedances among the store's
// worlds, with every count that proves p > cut answered by the canonical
// value.
func (s *NullStore) estimate(geq int) float64 {
	if geq > s.stop {
		geq = s.stop
	}
	return float64(1+geq) / float64(s.worlds+1)
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

// newPairNullKey normalizes a key so n1 <= n2.
func newPairNullKey(n1, n2, pooledPositives int) pairNullKey {
	if n1 > n2 {
		n1, n2 = n2, n1
	}
	return pairNullKey{n1: n1, n2: n2, pooledPositives: pooledPositives}
}

// fillNull draws null worlds of the pairwise LRT statistic for key into dst
// in stream order, continuing rng — the key-seeded stream, at any position —
// and counting the worlds whose statistic is >= observed. It stops before
// drawing a world once that count reaches stop, returning the worlds drawn
// and the count; math.MaxInt never stops. Every world is bit-identical to a
// direct draw on the same stream: both counts from RNG.Binomial at the
// pooled rate, scored by PairLRT.
//
// Within one fill the region sizes are fixed, so every logarithm PairLRT
// evaluates is a function of the drawn counts alone: the
// alternative-hypothesis terms depend only on k1 (respectively k2), and the
// null terms only on the pooled sum s = k1+k2. The tables memoize those
// values lazily — each entry is computed by the exact expression PairLRT
// uses, and the statistic is assembled with the same operations in the same
// order, so only repeated math.Log evaluations are saved (the draws
// concentrate around the binomial mean, so a fill of m worlds touches far
// fewer than m distinct entries). Each table covers a window of
// nullTableSize counts around its binomial mean — all of [0, n] when that
// fits — and a draw outside the window is computed directly by the same
// expression. The tables and both binomial samplers live on the stack,
// keeping the fill allocation-free.
func fillNull(dst []float64, rng *RNG, key pairNullKey, observed float64, stop int) (drawn, geq int) {
	n1, n2 := key.n1, key.n2
	if n1 <= 0 {
		// PairLRT scores every world of an empty region 0, whatever is drawn.
		for drawn = range dst {
			if geq >= stop {
				return drawn, geq
			}
			dst[drawn] = 0
			if 0 >= observed {
				geq++
			}
		}
		return len(dst), geq
	}
	n := n1 + n2
	pooledRate := float64(key.pooledPositives) / float64(n)
	b1, b2 := newBinomialSampler(n1, pooledRate), newBinomialSampler(n2, pooledRate)
	var la1, la2 altLogTable // MaxBernoulliLogLik(k, n1|n2)
	var ls pooledLogTable    // Log(pooled), Log(1-pooled) by s
	la1.lo = nullTableLo(n1, pooledRate)
	la2.lo = nullTableLo(n2, pooledRate)
	ls.lo = nullTableLo(n, pooledRate)
	for drawn = range dst {
		if geq >= stop {
			return drawn, geq
		}
		k1 := b1.draw(rng)
		k2 := b2.draw(rng)
		lp, lq := ls.at(k1+k2, n)
		// BernoulliLogLik(k, n, rho) with rho in (0,1) guaranteed whenever a
		// guarded term is taken: k > 0 implies s > 0 and n-k > 0 implies
		// s < n, so the -Inf branches are unreachable and each term reduces
		// to the same guarded multiply-adds, from the same zero value.
		var l1, l2 float64
		if k1 > 0 {
			l1 = float64(k1) * lp
		}
		if n1-k1 > 0 {
			l1 += float64(n1-k1) * lq
		}
		if k2 > 0 {
			l2 = float64(k2) * lp
		}
		if n2-k2 > 0 {
			l2 += float64(n2-k2) * lq
		}
		v := LogLikRatio(l1+l2, la1.at(k1, n1)+la2.at(k2, n2))
		dst[drawn] = v
		if v >= observed {
			geq++
		}
	}
	return len(dst), geq
}

// nullTableSize is the entry count of each of fillNull's tables.
const nullTableSize = 2049

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
