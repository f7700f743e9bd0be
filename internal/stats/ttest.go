package stats

import "math"

// WelchTResult holds the outcome of Welch's unequal-variance t-test.
type WelchTResult struct {
	T  float64 // test statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value (normal approximation of the t tail)
}

// WelchT tests H0: the two samples share a mean, without assuming equal
// variances. It is offered as a parametric alternative similarity metric to
// the rank-based Mann–Whitney U test. Samples smaller than two observations
// return P = NaN.
//
// The p-value uses the Student-t tail computed through the regularized
// incomplete beta function, exact for the test's distribution under
// normality.
func WelchT(xs, ys []float64) WelchTResult {
	n1, n2 := len(xs), len(ys)
	if n1 < 2 || n2 < 2 {
		return WelchTResult{T: math.NaN(), DF: math.NaN(), P: math.NaN()}
	}
	return WelchTFromMoments(n1, Mean(xs), SampleVariance(xs), n2, Mean(ys), SampleVariance(ys))
}

// WelchTFromMoments is WelchT computed from each sample's size, mean, and
// unbiased sample variance instead of the raw observations. A caller that
// compares one sample against many others can compute the moments once per
// sample (the audit engine's prepared Welch scorer); results are bit-identical
// to WelchT on the same data. Samples smaller than two observations return
// P = NaN.
func WelchTFromMoments(n1 int, m1, v1 float64, n2 int, m2, v2 float64) WelchTResult {
	if n1 < 2 || n2 < 2 {
		return WelchTResult{T: math.NaN(), DF: math.NaN(), P: math.NaN()}
	}
	se1, se2 := v1/float64(n1), v2/float64(n2)
	se := math.Sqrt(se1 + se2)
	if se == 0 { //lint:floateq-ok degenerate-variance-sentinel
		if m1 == m2 { //lint:floateq-ok degenerate-variance-sentinel
			return WelchTResult{T: 0, DF: float64(n1 + n2 - 2), P: 1}
		}
		return WelchTResult{T: math.Inf(1), DF: float64(n1 + n2 - 2), P: 0}
	}
	t := (m1 - m2) / se
	df := (se1 + se2) * (se1 + se2) /
		(se1*se1/float64(n1-1) + se2*se2/float64(n2-1))
	return WelchTResult{T: t, DF: df, P: StudentTTwoSidedP(t, df)}
}

// StudentTTwoSidedP returns the two-sided p-value P(|T| >= |t|) for a
// Student-t variable with df degrees of freedom, via the regularized
// incomplete beta identity.
func StudentTTwoSidedP(t, df float64) float64 {
	if math.IsNaN(t) || df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 0) {
		return 0
	}
	x := df / (df + t*t)
	p := regularizedIncompleteBeta(df/2, 0.5, x)
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// regularizedIncompleteBeta computes I_x(a, b) by the continued-fraction
// expansion (Numerical Recipes 6.4).
func regularizedIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lbeta) / a
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	lbeta2 := lgamma(b) + lgamma(a) - lgamma(a+b)
	front2 := math.Exp(b*math.Log(1-x)+a*math.Log(x)-lbeta2) / b
	return 1 - front2*betaCF(b, a, 1-x)
}

func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + 2*fm) * (a + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + 2*fm) * (qap + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
