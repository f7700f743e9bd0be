package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestKeyResolution(t *testing.T) {
	r := NewRegistry(Limits{}, nil)
	if r.Keyed() {
		t.Error("fresh registry reports keyed")
	}
	r.AddKey("k1", "acme")
	r.AddKey("k2", "acme")
	r.AddKey("k3", "globex")
	if !r.Keyed() {
		t.Error("registry with keys reports keyless")
	}
	for key, want := range map[string]string{"k1": "acme", "k2": "acme", "k3": "globex"} {
		got, ok := r.Resolve(key)
		if !ok || got != want {
			t.Errorf("Resolve(%q) = %q,%v want %q", key, got, ok, want)
		}
	}
	if _, ok := r.Resolve("nope"); ok {
		t.Error("unknown key resolved")
	}
	r.AddKey("k3", "acme") // re-pointing a key
	if got, _ := r.Resolve("k3"); got != "acme" {
		t.Errorf("re-added key resolves to %q", got)
	}
}

func TestRateLimitBurstThenSustained(t *testing.T) {
	clock := newFakeClock()
	r := NewRegistry(Limits{RatePerSec: 2, Burst: 5}, clock.Now)

	// The full burst is available up front...
	for i := 0; i < 5; i++ {
		if ok, _ := r.AllowRequest("acme"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	// ...then the bucket is empty and the caller is told how long to wait.
	ok, wait := r.AllowRequest("acme")
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if wait < time.Second {
		t.Errorf("retry-after %v below the one-second floor", wait)
	}

	// Sustained: each half second refills exactly one token at 2 rps.
	for i := 0; i < 4; i++ {
		clock.Advance(500 * time.Millisecond)
		if ok, _ := r.AllowRequest("acme"); !ok {
			t.Errorf("sustained request %d rejected after refill", i)
		}
		if ok, _ := r.AllowRequest("acme"); ok {
			t.Errorf("sustained request %d: second request in the window allowed", i)
		}
	}

	// A long idle period refills back to the burst cap, not beyond.
	clock.Advance(time.Hour)
	granted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := r.AllowRequest("acme"); ok {
			granted++
		}
	}
	if granted != 5 {
		t.Errorf("after idle: %d requests granted, want burst cap 5", granted)
	}
}

func TestRateLimitPerTenantIsolation(t *testing.T) {
	clock := newFakeClock()
	r := NewRegistry(Limits{RatePerSec: 1, Burst: 2}, clock.Now)
	for i := 0; i < 2; i++ {
		if ok, _ := r.AllowRequest("acme"); !ok {
			t.Fatalf("acme request %d rejected", i)
		}
	}
	if ok, _ := r.AllowRequest("acme"); ok {
		t.Fatal("acme exhausted bucket still allows")
	}
	// Exhausting acme must not touch globex.
	for i := 0; i < 2; i++ {
		if ok, _ := r.AllowRequest("globex"); !ok {
			t.Errorf("globex request %d rejected after acme exhausted", i)
		}
	}
}

func TestRateLimitDisabled(t *testing.T) {
	r := NewRegistry(Limits{}, newFakeClock().Now)
	for i := 0; i < 100; i++ {
		if ok, _ := r.AllowRequest("acme"); !ok {
			t.Fatal("zero limits must never rate-limit")
		}
	}
}

func TestJobLimit(t *testing.T) {
	r := NewRegistry(Limits{MaxActiveJobs: 2}, newFakeClock().Now)
	if err := r.AdmitJob("acme"); err != nil {
		t.Fatal(err)
	}
	if err := r.AdmitJob("acme"); err != nil {
		t.Fatal(err)
	}
	if err := r.AdmitJob("acme"); !errors.Is(err, ErrJobLimit) {
		t.Fatalf("third admit = %v, want ErrJobLimit", err)
	}
	// Other tenants have their own slots.
	if err := r.AdmitJob("globex"); err != nil {
		t.Errorf("globex admit = %v", err)
	}
	// Releasing frees the slot without charging.
	r.ReleaseJob("acme")
	if err := r.AdmitJob("acme"); err != nil {
		t.Errorf("admit after release = %v", err)
	}
	if got := activeJobs(r, "acme"); got != 2 {
		t.Errorf("active = %d, want 2", got)
	}
}

func TestComputeBudgetPostPaidAndRefill(t *testing.T) {
	clock := newFakeClock()
	r := NewRegistry(Limits{ComputeBudget: 1000, ComputeRefillPerSec: 100}, clock.Now)

	if err := r.AdmitJob("acme"); err != nil {
		t.Fatal(err)
	}
	// Post-paid: the charge may overshoot the balance.
	r.FinishJob("acme", 1500)
	if got := budgetRemaining(r, "acme"); got != -500 {
		t.Errorf("balance = %v, want -500", got)
	}
	if err := r.AdmitJob("acme"); !errors.Is(err, ErrBudget) {
		t.Fatalf("admit with negative balance = %v, want ErrBudget", err)
	}

	// Refill restores admission once the balance is positive again.
	clock.Advance(6 * time.Second) // -500 + 600 = 100
	if got := budgetRemaining(r, "acme"); math.Abs(got-100) > 1e-9 {
		t.Errorf("balance after refill = %v, want 100", got)
	}
	if err := r.AdmitJob("acme"); err != nil {
		t.Errorf("admit after refill = %v", err)
	}
	r.ReleaseJob("acme")

	// Refill caps at the configured budget.
	clock.Advance(time.Hour)
	if got := budgetRemaining(r, "acme"); got != 1000 {
		t.Errorf("balance after long idle = %v, want cap 1000", got)
	}

	// Budget exhaustion on one tenant leaves others untouched.
	if err := r.AdmitJob("globex"); err != nil {
		t.Errorf("globex admit = %v", err)
	}
}

func TestBudgetDisabled(t *testing.T) {
	r := NewRegistry(Limits{}, newFakeClock().Now)
	if got := budgetRemaining(r, "acme"); !math.IsInf(got, 1) {
		t.Errorf("disabled budget remaining = %v, want +Inf", got)
	}
	r.FinishJob("acme", 1e12)
	if err := r.AdmitJob("acme"); err != nil {
		t.Errorf("admit with disabled budget = %v", err)
	}
}

func TestSetLimitsOverridesDefaults(t *testing.T) {
	r := NewRegistry(Limits{MaxActiveJobs: 1}, newFakeClock().Now)
	r.SetLimits("big", Limits{MaxActiveJobs: 3})
	for i := 0; i < 3; i++ {
		if err := r.AdmitJob("big"); err != nil {
			t.Fatalf("big admit %d = %v", i, err)
		}
	}
	if err := r.AdmitJob("small"); err != nil {
		t.Fatal(err)
	}
	if err := r.AdmitJob("small"); !errors.Is(err, ErrJobLimit) {
		t.Errorf("small keeps the default limit: %v", err)
	}
}

func TestAuditLogRecordAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{
		Time: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), RequestID: "req-1",
		Tenant: "acme", Method: "POST", Path: "/jobs", Status: 202,
		JobID: "job-00000001", BytesIn: 10, BytesOut: 20, Seconds: 0.5,
	}
	if err := l.Record(e); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening appends; the earlier entry survives.
	l2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	e2 := e
	e2.RequestID = "req-2"
	if err := l2.Record(e2); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("log has %d lines, want 2 across reopens", len(lines))
	}
	var got Entry
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round-trip = %+v, want %+v", got, e)
	}
}

func TestAuditLogNilSafe(t *testing.T) {
	var l *Log
	if err := l.Record(Entry{}); err != nil {
		t.Error(err)
	}
	if err := l.Close(); err != nil {
		t.Error(err)
	}
}

func TestAuditLogConcurrentAppends(t *testing.T) {
	var buf bytes.Buffer
	l := &Log{w: &syncBuffer{buf: &buf}}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := l.Record(Entry{RequestID: "r", Method: "GET", Path: "/jobs"}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 200 {
		t.Errorf("lines = %d, want 200", len(lines))
	}
	for i, line := range lines {
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d corrupt: %v", i, err)
		}
	}
}

// syncBuffer guards a bytes.Buffer; the Log serializes writes itself, but
// the test's final read must not race its own writer goroutines either.
type syncBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// activeJobs reports a tenant's queued-or-running job count.
func activeJobs(r *Registry, tenantName string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenant(tenantName).active
}

// budgetRemaining reports a tenant's compute balance refilled to now, +Inf
// when budgeting is disabled.
func budgetRemaining(r *Registry, tenantName string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.tenant(tenantName)
	if st.limits.ComputeBudget <= 0 {
		return math.Inf(1)
	}
	st.refill(r.clock())
	return st.budget
}
