package server

import (
	"fmt"
	"math"
	"net/url"
	"strconv"

	"lcsf/internal/core"
	"lcsf/internal/geo"
)

// auditParams is the resolved per-request audit parameterization, shared by
// the synchronous /audit routes and the asynchronous /jobs submissions so
// the two paths cannot drift in what they accept.
type auditParams struct {
	Cols, Rows int
	Audit      core.Config
}

// parseAuditParams resolves the audit query parameters against a base
// configuration: cols/rows (grid resolution, default 100x50), ethical=1
// (applies core.EthicalConfig's Epsilon, Delta and Eta on top of the base,
// whose other settings stand), the float thresholds epsilon, delta,
// eta, alpha, the integer min_region, and seed. Floats must be finite —
// NaN and ±Inf parse as valid float64s but would poison every downstream
// comparison, so they are rejected here with the same 400 a malformed
// number gets. The resolved configuration must pass core.Config.Validate,
// so both LAR routes can refuse it before they read the body.
func parseAuditParams(q url.Values, base core.Config) (auditParams, error) {
	p := auditParams{Cols: 100, Rows: 50, Audit: base}
	if q.Get("ethical") == "1" {
		e := core.EthicalConfig()
		p.Audit.Epsilon, p.Audit.Delta, p.Audit.Eta = e.Epsilon, e.Delta, e.Eta
	}
	var paramErr error
	getInt := func(name string, dst *int) {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				paramErr = fmt.Errorf("parameter %s must be a positive integer", name)
				return
			}
			*dst = n
		}
	}
	getFloat := func(name string, dst *float64) {
		if v := q.Get(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				paramErr = fmt.Errorf("parameter %s must be a number", name)
				return
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				paramErr = fmt.Errorf("parameter %s must be a finite number", name)
				return
			}
			*dst = f
		}
	}
	getInt("cols", &p.Cols)
	getInt("rows", &p.Rows)
	getFloat("epsilon", &p.Audit.Epsilon)
	getFloat("delta", &p.Audit.Delta)
	getFloat("eta", &p.Audit.Eta)
	getFloat("alpha", &p.Audit.Alpha)
	getInt("min_region", &p.Audit.MinRegionSize)
	if v := q.Get("seed"); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			paramErr = fmt.Errorf("parameter seed must be a non-negative integer")
		} else {
			p.Audit.Seed = s
		}
	}
	if paramErr != nil {
		return p, paramErr
	}
	if err := geo.CheckGridDims(p.Cols, p.Rows); err != nil {
		return p, err
	}
	return p, p.Audit.Validate()
}
