// Package tenant provides the multi-tenant control plane the audit-job
// service sits behind: API-key resolution, per-tenant token-bucket rate
// limits, concurrent-job caps, refillable compute budgets, and a persistent
// append-only request log. The registry is the single synchronization point
// — the HTTP middleware consults it per request and the job service charges
// it per finished job — and every decision is deterministic in (configured
// limits, injected clock), so the control plane is table-testable without
// wall-clock sleeps.
package tenant

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Limits bounds one tenant's use of the service. The zero value of any
// field disables that control, so a registry configured with zero Limits
// authenticates keys but constrains nothing.
type Limits struct {
	// RatePerSec refills the tenant's request token bucket; every
	// authenticated request spends one token. 0 disables rate limiting.
	RatePerSec float64
	// Burst caps the bucket (how many requests can arrive back-to-back
	// after an idle period). 0 defaults to max(RatePerSec, 1) so a
	// configured rate always admits at least single requests.
	Burst float64
	// MaxActiveJobs caps the tenant's jobs that are queued or running at
	// once. 0 disables the cap.
	MaxActiveJobs int
	// ComputeBudget caps the tenant's compute spend, measured in audit
	// pairs scanned (the unit every jobs.* funnel already counts). Charges
	// are post-paid — a job's actual pairs are deducted when it finishes —
	// and a tenant whose balance is non-positive cannot submit. 0 disables
	// budgeting.
	ComputeBudget float64
	// ComputeRefillPerSec restores budget over time, capped at
	// ComputeBudget. 0 makes the budget a hard lifetime cap.
	ComputeRefillPerSec float64
}

func (l Limits) burst() float64 {
	if l.Burst > 0 {
		return l.Burst
	}
	return math.Max(l.RatePerSec, 1)
}

// Admission errors. AdmitJob wraps them with tenant context; callers match
// with errors.Is.
var (
	ErrJobLimit = errors.New("tenant: concurrent-job limit reached")
	ErrBudget   = errors.New("tenant: compute budget exhausted")
)

// state is one tenant's live control-plane account.
type state struct {
	limits Limits

	// Request token bucket.
	tokens   float64
	lastFill time.Time

	// Compute budget balance; may go negative after a post-paid charge.
	budget     float64
	lastRefill time.Time

	// Jobs queued or running right now.
	active int
}

// Registry resolves API keys to tenants and enforces their limits. All
// methods are safe for concurrent use. The zero value is not usable; use
// NewRegistry.
type Registry struct {
	clock    func() time.Time
	defaults Limits

	mu      sync.Mutex
	keys    map[string]string // API key -> tenant name
	tenants map[string]*state
}

// NewRegistry returns a registry applying defaults to every tenant without
// explicit limits. clock supplies the time source for refills (nil means
// time.Now) — inject a fake in tests to drive refill behavior
// deterministically.
func NewRegistry(defaults Limits, clock func() time.Time) *Registry {
	if clock == nil {
		clock = time.Now
	}
	return &Registry{
		clock:    clock,
		defaults: defaults,
		keys:     make(map[string]string),
		tenants:  make(map[string]*state),
	}
}

// AddKey maps an API key to a tenant. Multiple keys may share a tenant;
// re-adding a key re-points it.
func (r *Registry) AddKey(key, tenantName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[key] = tenantName
}

// SetLimits overrides the default limits for one tenant.
//
//lint:deadexport-ok the server's tenancy tests give one tenant its own limits; lcsf-serve configures only the defaults
func (r *Registry) SetLimits(tenantName string, l Limits) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.tenant(tenantName)
	st.limits = l
	st.tokens = l.burst()
	st.budget = l.ComputeBudget
}

// Keyed reports whether any API keys are configured; a keyless registry
// leaves the service open (every caller is the anonymous tenant "").
func (r *Registry) Keyed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.keys) > 0
}

// Resolve maps an API key to its tenant.
func (r *Registry) Resolve(key string) (tenantName string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tenantName, ok = r.keys[key]
	return tenantName, ok
}

// tenant returns (creating on first touch) the tenant's account. Callers
// hold r.mu.
func (r *Registry) tenant(name string) *state {
	st, ok := r.tenants[name]
	if !ok {
		now := r.clock()
		st = &state{
			limits:     r.defaults,
			tokens:     r.defaults.burst(),
			lastFill:   now,
			budget:     r.defaults.ComputeBudget,
			lastRefill: now,
		}
		r.tenants[name] = st
	}
	return st
}

// refill advances st's token bucket and compute budget to now. Callers hold
// r.mu.
func (st *state) refill(now time.Time) {
	if dt := now.Sub(st.lastFill).Seconds(); dt > 0 {
		st.tokens = math.Min(st.limits.burst(), st.tokens+dt*st.limits.RatePerSec)
		st.lastFill = now
	}
	if dt := now.Sub(st.lastRefill).Seconds(); dt > 0 {
		if st.limits.ComputeRefillPerSec > 0 {
			st.budget = math.Min(st.limits.ComputeBudget, st.budget+dt*st.limits.ComputeRefillPerSec)
		}
		st.lastRefill = now
	}
}

// AllowRequest spends one request token for the tenant. When the bucket is
// empty it reports false plus how long the caller should wait before
// retrying (the Retry-After the middleware sends, at least one second).
func (r *Registry) AllowRequest(tenantName string) (ok bool, retryAfter time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.tenant(tenantName)
	if st.limits.RatePerSec <= 0 {
		return true, 0
	}
	st.refill(r.clock())
	if st.tokens >= 1 {
		st.tokens--
		return true, 0
	}
	wait := time.Duration((1 - st.tokens) / st.limits.RatePerSec * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return false, wait
}

// AdmitJob reserves a job slot for the tenant, enforcing the concurrent-job
// cap and the compute budget. On success the tenant's active count is
// incremented; the caller must balance every successful admit with exactly
// one ReleaseJob or FinishJob.
func (r *Registry) AdmitJob(tenantName string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.tenant(tenantName)
	st.refill(r.clock())
	if st.limits.MaxActiveJobs > 0 && st.active >= st.limits.MaxActiveJobs {
		return fmt.Errorf("tenant %q: %w (%d active)", tenantName, ErrJobLimit, st.active)
	}
	if st.limits.ComputeBudget > 0 && st.budget <= 0 {
		return fmt.Errorf("tenant %q: %w", tenantName, ErrBudget)
	}
	st.active++
	return nil
}

// ReleaseJob returns an admitted slot without charging compute — the
// submission failed downstream (queue full, draining) and no work ran.
func (r *Registry) ReleaseJob(tenantName string) {
	r.finish(tenantName, 0)
}

// FinishJob returns an admitted slot and charges the job's measured compute
// (pairs scanned) against the tenant's budget. Post-paid: the balance may go
// negative, blocking further admissions until refill catches up.
func (r *Registry) FinishJob(tenantName string, computeUnits float64) {
	r.finish(tenantName, computeUnits)
}

func (r *Registry) finish(tenantName string, computeUnits float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.tenant(tenantName)
	if st.active > 0 {
		st.active--
	}
	if st.limits.ComputeBudget > 0 && computeUnits > 0 {
		st.refill(r.clock())
		st.budget -= computeUnits
	}
}
