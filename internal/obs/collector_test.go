package obs

import (
	"sync"
	"testing"
	"time"

	"lcsf/internal/testutil"
)

// TestNilCollector proves every method is a safe no-op on nil — the contract
// that lets core and server thread an optional collector without guards.
func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Count(MAuditRuns, 1)
	c.Inc(MAuditCandidates)
	c.AddGauge(MHTTPInFlight, -1)
	c.ObserveSeconds(MAuditSeconds, time.Second)
	c.ObserveBytes(MHTTPBodyBytes, 1024)
	c.Event("audit.start", "", "msg", nil)
	if c.Events() != nil {
		t.Error("nil collector must expose nil event log")
	}
	if c.Uptime() != 0 {
		t.Error("nil collector uptime")
	}
	s := c.Snapshot()
	if s.Counters == nil || len(s.Counters) != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
}

func TestCollectorRecordsAndSnapshots(t *testing.T) {
	c := NewCollector(16)
	c.Inc(MAuditRuns)
	c.Count(MAuditMCWorlds, 999)
	c.AddGauge(MHTTPInFlight, 3)
	c.ObserveSeconds(MAuditSeconds, 50*time.Millisecond)
	c.ObserveBytes(MHTTPBodyBytes, 2048)
	c.Event("audit.finish", "req-9", "done", map[string]any{"pairs": 2})

	s := c.Snapshot()
	if s.Counter(MAuditRuns) != 1 || s.Counter(MAuditMCWorlds) != 999 {
		t.Errorf("counters = %+v", s.Counters)
	}
	testutil.InDelta(t, "in-flight gauge", s.Gauges[MHTTPInFlight], 3, 0)
	if h := s.Histograms[MAuditSeconds]; h.Count != 1 {
		t.Errorf("seconds hist = %+v", h)
	} else {
		testutil.InDelta(t, "seconds hist sum", h.Sum, 0.05, 1e-12)
	}
	if h := s.Histograms[MHTTPBodyBytes]; h.Count != 1 {
		t.Errorf("bytes hist = %+v", h)
	} else {
		testutil.InDelta(t, "bytes hist sum", h.Sum, 2048, 0)
	}
	evs := c.Events().Recent(0)
	if len(evs) != 1 || evs[0].RequestID != "req-9" {
		t.Errorf("events = %+v", evs)
	}
	if c.Uptime() <= 0 {
		t.Error("uptime must be positive")
	}
}

// TestCollectorConcurrent hammers one collector from many goroutines; the
// -race run is the point.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(32)
	const workers, iters = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc(MAuditCandidates)
				c.AddGauge(MHTTPInFlight, 1)
				c.AddGauge(MHTTPInFlight, -1)
				c.ObserveSeconds(MHTTPLatencySeconds, time.Microsecond)
				c.Event("t", "", "m", nil)
				if i%100 == 0 {
					_ = c.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Counter(MAuditCandidates) != workers*iters {
		t.Errorf("candidates = %d", s.Counter(MAuditCandidates))
	}
	testutil.InDelta(t, "in-flight gauge after drain", s.Gauges[MHTTPInFlight], 0, 0)
}
