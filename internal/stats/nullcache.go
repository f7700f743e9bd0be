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
// keeps nothing. The store is safe for concurrent use: a lookup of a
// stored key is a probe of atomic loads in an open-addressed table, with no
// lock and no write to shared memory. Inserts serialize on one mutex and
// publish an entry only once its key is set; entries are never removed, so
// a probe that meets an empty slot has proved its key absent at that
// moment.
type NullStore struct {
	seed   uint64
	worlds int
	stop   int          // exceedances proving p > cut: mcStopCount(worlds, cut)
	stored atomic.Int64 // samples kept, at most nullStoreMax; written under mu

	mu    sync.Mutex // serializes inserts
	slots [nullStoreSlots]atomic.Pointer[nullEntry]
}

// nullStoreMax bounds the samples a store keeps: 2048 samples at the
// paper's m = 999 is ~16 MiB, above the distinct signatures a full-volume
// LAR audit needs and bounded for audits whose regions never repeat one.
const nullStoreMax = 2048

// nullStoreSlots is the table's size: a power of two at least twice
// nullStoreMax, so the table is never more than half full and every probe
// meets an empty slot soon.
const nullStoreSlots = 2 * nullStoreMax

// pairNullKey is the normalized store key: n1 <= n2 (the null is symmetric in
// the two regions' sizes given the pooled count).
type pairNullKey struct {
	n1, n2          int
	pooledPositives int
}

type nullEntry struct {
	key          pairNullKey
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
	return &NullStore{seed: seed, worlds: worlds, stop: mcStopCount(worlds, cut)}
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
// which is filled into sc's sample buffer (grown to m when shorter). Every
// fill builds its samplers and log tables in sc. The returned p
// is deterministic in (seed, worlds, cut, key, observed) either way.
//
//lint:hotpath
func (s *NullStore) PValue(n1, n2, pooledPositives int, observed float64, sc *NullScratch) (p float64, drawn int, filled bool) {
	if s.worlds <= 0 {
		return 1, 0, false
	}
	key := newPairNullKey(n1, n2, pooledPositives)
	h := nullKeyHash(key)
	e, _ := s.find(key, h)
	if e == nil {
		if e = s.insert(key, h); e == nil {
			if cap(sc.sample) < s.worlds {
				sc.sample = make([]float64, s.worlds) //lint:hotpathalloc-ok grows the caller's scratch once, reused by every later overflow fill
			}
			var rng RNG
			rng.Seed(nullCacheSeed(s.seed, key))
			drawn, geq := fillNull(sc.sample[:s.worlds], &rng, key, observed, s.stop, sc)
			return s.estimate(geq), drawn, true
		}
	}
	e.fillOnce.Do(func() { //lint:hotpathalloc-ok one prefix per stored key, amortized over all later lookups
		e.sample = make([]float64, s.worlds)
		e.rng.Seed(nullCacheSeed(s.seed, key))
		var geq int
		e.drawn, geq = fillNull(e.sample, &e.rng, key, observed, s.stop, sc)
		p, drawn, filled = s.estimate(geq), e.drawn, true
	})
	if filled {
		return p, drawn, true
	}
	e.completeOnce.Do(func() { //lint:hotpathalloc-ok one completion per stored key, on its second lookup; later lookups skip it
		drawn, _ = fillNull(e.sample[e.drawn:], &e.rng, key, 0, math.MaxInt, sc)
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

// find probes the table for key, whose hash is h. It returns the key's
// entry, or nil and the empty slot where the probe stopped.
func (s *NullStore) find(key pairNullKey, h uint64) (*nullEntry, uint64) {
	for i := h; ; i++ {
		i &= nullStoreSlots - 1
		e := s.slots[i].Load()
		if e == nil || e.key == key {
			return e, i
		}
	}
}

// insert adds an empty entry for key unless another goroutine already did,
// returning nil when the store is full. Once full the store never changes
// again, and every entry was published before the count reached the bound,
// so a full store answers by a probe without the lock.
func (s *NullStore) insert(key pairNullKey, h uint64) *nullEntry { //lint:hotpathalloc-ok once per stored key, amortized
	if s.stored.Load() >= nullStoreMax {
		e, _ := s.find(key, h)
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, i := s.find(key, h)
	if e != nil || s.stored.Load() >= nullStoreMax {
		return e
	}
	e = &nullEntry{key: key}
	s.slots[i].Store(e)
	s.stored.Add(1)
	return e
}

// newPairNullKey normalizes a key so n1 <= n2.
func newPairNullKey(n1, n2, pooledPositives int) pairNullKey {
	if n1 > n2 {
		n1, n2 = n2, n1
	}
	return pairNullKey{n1: n1, n2: n2, pooledPositives: pooledPositives}
}

// NullScratch is a worker's reusable memory for null fills: the sample of a
// key the full store cannot keep, both counts' binomial samplers, and the
// fill's logarithm tables. Each grows to the widest fill it has served and
// is reused, so fills after warm-up allocate nothing. A NullScratch is not
// safe for concurrent use; give each goroutine its own.
type NullScratch struct {
	sample     []float64
	b1, b2     BinomialSampler
	alt1, alt2 []float64 // MaxBernoulliLogLik of each region's count, by offset in its window
	lp, lq     []float64 // PooledLogs of the summed count, by offset in the sum's window
}

// fillNull draws null worlds of the pairwise LRT statistic for key into dst
// in stream order, continuing rng — the key-seeded stream, at any position —
// and counting the worlds whose statistic is >= observed. It stops before
// drawing a world once that count reaches stop, returning the worlds drawn
// and the count; math.MaxInt never stops. Every world is bit-identical to a
// direct draw on the same stream: both counts from BinomialSampler at the
// pooled rate, scored by PairLRT.
//
// Within one fill the region sizes are fixed, so every logarithm PairLRT
// evaluates is a function of the drawn counts alone: the
// alternative-hypothesis terms depend only on k1 (respectively k2), and the
// null terms only on the pooled sum s = k1+k2. The tables in sc memoize
// those values lazily — each entry is computed by the exact expression
// PairLRT uses, and the statistic is assembled with the same operations in
// the same order, so only repeated math.Log evaluations are saved (the
// draws concentrate around the binomial mean, so a fill of m worlds touches
// far fewer than m distinct entries). Each sampler draws only inside its
// window, so each table covers exactly a window: k1's, k2's, and their sum
// over both.
func fillNull(dst []float64, rng *RNG, key pairNullKey, observed float64, stop int, sc *NullScratch) (drawn, geq int) {
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
	b1, b2 := &sc.b1, &sc.b2
	b1.reset(n1, pooledRate)
	b2.reset(n2, pooledRate)
	lo1, hi1 := b1.Window()
	lo2, hi2 := b2.Window()
	alt1 := unsetTable(&sc.alt1, hi1-lo1+1)
	alt2 := unsetTable(&sc.alt2, hi2-lo2+1)
	lps := unsetTable(&sc.lp, hi1+hi2-lo1-lo2+1)
	lqs := unsetTable(&sc.lq, len(lps))
	for drawn = range dst {
		if geq >= stop {
			return drawn, geq
		}
		k1 := b1.Draw(rng)
		k2 := b2.Draw(rng)
		j := k1 + k2 - lo1 - lo2
		if math.IsNaN(lps[j]) {
			lps[j], lqs[j] = PooledLogs(k1+k2, n)
		}
		l1 := PooledLogLik(k1, n1, lps[j], lqs[j])
		l2 := PooledLogLik(k2, n2, lps[j], lqs[j])
		a1, a2 := &alt1[k1-lo1], &alt2[k2-lo2]
		if math.IsNaN(*a1) {
			*a1 = MaxBernoulliLogLik(k1, n1)
		}
		if math.IsNaN(*a2) {
			*a2 = MaxBernoulliLogLik(k2, n2)
		}
		v := LogLikRatio(l1+l2, *a1+*a2)
		dst[drawn] = v
		if v >= observed {
			geq++
		}
	}
	return len(dst), geq
}

// unsetTable returns the first n entries of *buf, grown when shorter, set
// to NaN — the mark of an entry not yet computed, which no logarithm a
// fill tabulates can equal.
func unsetTable(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n) //lint:hotpathalloc-ok grows the caller's table once per width, reused by every later fill
	}
	t := (*buf)[:n]
	for i := range t {
		t[i] = math.NaN()
	}
	return t
}

// PooledLogs returns Log(rho) and Log(1-rho) at the pooled rate rho = s/n,
// the two logarithms BernoulliLogLik takes under PairLRT's null.
func PooledLogs(s, n int) (lp, lq float64) {
	rho := float64(s) / float64(n)
	return math.Log(rho), math.Log(1 - rho)
}

// PooledLogLik is BernoulliLogLik(k, n, rho) for one of the two regions
// under PairLRT's null, from lp, lq = PooledLogs(s, n1+n2): the same
// guarded multiply-adds from the same zero value, so bit-identical. There
// rho is in (0,1) whenever a term is taken — k > 0 implies s > 0 and n-k > 0
// implies s < n1+n2 — so BernoulliLogLik's -Inf branches are unreachable.
func PooledLogLik(k, n int, lp, lq float64) float64 {
	var l float64
	if k > 0 {
		l = float64(k) * lp
	}
	if n-k > 0 {
		l += float64(n-k) * lq
	}
	return l
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

// nullKeyHash places keys in the store's table (distinct from nullCacheSeed
// so placement and stream seeding are uncorrelated).
func nullKeyHash(key pairNullKey) uint64 {
	h := uint64(0x517cc1b727220a95)
	h = (h ^ uint64(key.n1)) * 0x2545F4914F6CDD1D
	h = (h ^ uint64(key.n2)) * 0x2545F4914F6CDD1D
	h = (h ^ uint64(key.pooledPositives)) * 0x2545F4914F6CDD1D
	return h ^ h>>32
}
