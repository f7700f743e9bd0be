package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(1)
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	c.Add(0)  // ignored
	if got := c.Value(); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("Value = %v", got)
	}
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("after Add: %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("Sum = %v", h.Sum())
	}
	s := h.snapshot()
	// 0.5 and 1 land in le=1; 5 in le=10; 50 in le=100; 500 overflows.
	want := map[float64]int64{1: 2, 10: 1, 100: 1, math.Inf(1): 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.UpperBound] != b.Count {
			t.Errorf("bucket le=%v count=%d, want %d", b.UpperBound, b.Count, want[b.UpperBound])
		}
	}
}

func TestHistogramUnsortedDuplicateBounds(t *testing.T) {
	h := NewHistogram([]float64{10, 1, 10, 5})
	if len(h.bounds) != 3 {
		t.Fatalf("bounds = %v, want deduplicated sorted 3", h.bounds)
	}
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i-1] >= h.bounds[i] {
			t.Fatalf("bounds not ascending: %v", h.bounds)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("audit.runs").Add(3)
	r.Gauge("http.in_flight").Add(2)
	r.Histogram("lat", []float64{0.1}).Observe(5) // overflow bucket -> +Inf bound
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot with +Inf bucket must marshal: %v", err)
	}
	if !strings.Contains(string(data), `"+Inf"`) {
		t.Errorf("overflow bucket missing from %s", data)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge not idempotent")
	}
	h1 := r.Histogram("x", []float64{1})
	h2 := r.Histogram("x", []float64{1, 2, 3}) // later bounds ignored
	if h1 != h2 {
		t.Error("Histogram not idempotent")
	}
	if len(h2.bounds) != 1 {
		t.Errorf("first registration must win: bounds=%v", h2.bounds)
	}
}

// TestRegistryConcurrent exercises registration, mutation, and snapshot from
// many goroutines at once; run under -race this is the collector's primary
// safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Add(1)
				r.Counter("own-" + string(rune('a'+w))).Add(1)
				r.Gauge("g").Add(1)
				r.Histogram("h", SecondsBuckets).Observe(float64(i) / 1000)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != workers*iters {
		t.Errorf("shared = %d, want %d", s.Counters["shared"], workers*iters)
	}
	if s.Gauges["g"] != workers*iters {
		t.Errorf("gauge = %v, want %d", s.Gauges["g"], workers*iters)
	}
	if s.Histograms["h"].Count != workers*iters {
		t.Errorf("hist count = %d, want %d", s.Histograms["h"].Count, workers*iters)
	}
}
