// Package obs is the framework's dependency-free observability layer: a
// metrics registry of atomic counters, gauges, and fixed-bucket histograms
// with JSON snapshot export, a bounded structured event log, and a Collector
// that bundles both behind nil-safe methods so instrumented code never has to
// guard against a missing collector.
//
// The package deliberately imports nothing outside the standard library and
// nothing else in this module, so every layer — stats, core, server, the cmd
// binaries — can depend on it without cycles.
package obs

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored; counters only go
// up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Add adjusts the gauge by delta (atomic read-modify-write).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bucket i counts observations v with
// v <= bounds[i]; one implicit overflow bucket counts the rest. Observation
// is lock-free.
type Histogram struct {
	bounds  []float64 // sorted ascending, immutable after construction
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given upper bounds. Bounds are
// sorted and deduplicated; an empty bounds slice yields a histogram with only
// the overflow bucket (still useful for count/sum).
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] { //lint:floateq-ok exact-duplicate-bound-dedup
			uniq = append(uniq, b)
		}
	}
	return &Histogram{
		bounds:  uniq,
		buckets: make([]atomic.Int64, len(uniq)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Upper-bound binary search: first bucket whose bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns a point-in-time copy. Concurrent Observe calls may land
// between bucket reads; the snapshot is still internally plausible (each
// bucket is atomically read) and exact once writers quiesce.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Buckets: make([]BucketCount, 0, len(h.buckets)),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := BucketCount{Count: n, UpperBound: math.Inf(1)}
		if i < len(h.bounds) {
			b.UpperBound = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// BucketCount is one non-empty histogram bucket in a snapshot. UpperBound is
// +Inf for the overflow bucket and serializes as the string "+Inf" (JSON has
// no infinity literal).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MarshalJSON implements json.Marshaler; the bound is emitted as a string so
// the overflow bucket's +Inf round-trips.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return []byte(`{"le":"` + le + `","count":` + strconv.FormatInt(b.Count, 10) + `}`), nil
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time JSON-marshalable copy of a Registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Counter returns the named counter's value, zero when absent — convenient
// for assertions.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Registry holds named metrics. Registration (the first use of a name) takes
// a mutex; subsequent lookups hit a read lock and the hot mutation paths are
// entirely atomic. The zero value is NOT usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter   //lint:guardedby mu
	gauges   map[string]*Gauge     //lint:guardedby mu
	hists    map[string]*Histogram //lint:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds on first use. Later calls ignore bounds (first
// registration wins), so call sites can pass their preferred default
// unconditionally.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every metric into an exportable structure.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}
