package verify

import (
	"math"

	"lcsf/internal/stats"
)

// NormalQuantile returns the z such that stats.NormalCDF(z) = p, for p in
// (0, 1): the Beasley-Springer-Moro / Acklam rational approximation,
// accurate to about 1e-9, then one Halley step through stats.NormalCDF. It
// returns ±Inf at the endpoints and NaN outside [0, 1]. FuzzNormalRoundTrip
// maps fuzzed probabilities through it to reach every range of NormalCDF
// and NormalSF.
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0: //lint:floateq-ok exact-tail-boundary
		return math.Inf(-1)
	case p == 1: //lint:floateq-ok exact-tail-boundary
		return math.Inf(1)
	}

	// Coefficients for the central and tail rational approximations.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}

	const pLow = 0.02425
	var z float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		z = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		z = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		z = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step sharpens the approximation. In the extreme
	// tails exp(z^2/2) overflows and the step degenerates to Inf/Inf = NaN;
	// the rational approximation is already at float64's limit there, so a
	// non-finite correction is skipped rather than applied.
	e := stats.NormalCDF(z) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(z*z/2)
	if h := u / (1 + z*u/2); !math.IsNaN(h) && !math.IsInf(h, 0) {
		z -= h
	}
	return z
}
