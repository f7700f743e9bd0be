package stats

import "math"

// BernoulliLogLik returns the log-likelihood of observing k successes in n
// independent Bernoulli trials with success probability rho:
//
//	k*ln(rho) + (n-k)*ln(1-rho)
//
// following the convention 0*ln(0) = 0 so that the maximum-likelihood
// estimate rho = k/n always has a finite likelihood. The binomial coefficient
// is omitted — it cancels in every likelihood ratio the framework computes.
// If rho is 0 (or 1) while k > 0 (or k < n), the likelihood is zero and -Inf
// is returned.
func BernoulliLogLik(k, n int, rho float64) float64 {
	if n < 0 || k < 0 || k > n {
		return math.NaN()
	}
	var ll float64
	if k > 0 {
		if rho <= 0 {
			return math.Inf(-1)
		}
		ll += float64(k) * math.Log(rho)
	}
	if n-k > 0 {
		if rho >= 1 {
			return math.Inf(-1)
		}
		ll += float64(n-k) * math.Log(1-rho)
	}
	return ll
}

// MaxBernoulliLogLik returns the log-likelihood of k successes in n trials at
// the maximum-likelihood estimate rho = k/n.
func MaxBernoulliLogLik(k, n int) float64 {
	if n <= 0 {
		return 0
	}
	return BernoulliLogLik(k, n, float64(k)/float64(n))
}

// LogLikRatio returns the likelihood-ratio test statistic
//
//	tau = -2 * (logL0 - logLa)
//
// which is non-negative whenever the alternative nests the null at their
// respective maxima. Infinite log-likelihoods are handled so that an
// impossible null against a possible alternative yields +Inf.
func LogLikRatio(logL0, logLa float64) float64 {
	if math.IsInf(logL0, -1) && math.IsInf(logLa, -1) {
		return 0
	}
	return -2 * (logL0 - logLa)
}

// PairLRT computes the likelihood-ratio statistic for the paper's pairwise
// test (Section 3.2) from the outcome counts of two regions. Under H0 both
// regions share one positive rate (its MLE is the pooled rate); under Ha each
// region has its own rate (MLE is the local rate).
//
// The group-composition terms of Equations 4 and 5 depend only on region
// composition, not on outcomes, so they appear identically in both hypotheses
// and cancel in the ratio; they are accounted for separately by
// PairCompositionLogLik for callers that need the full likelihood value.
func PairLRT(p1, n1, p2, n2 int) float64 {
	if n1 <= 0 || n2 <= 0 {
		return 0
	}
	pooled := float64(p1+p2) / float64(n1+n2)
	l0 := BernoulliLogLik(p1, n1, pooled) + BernoulliLogLik(p2, n2, pooled)
	la := MaxBernoulliLogLik(p1, n1) + MaxBernoulliLogLik(p2, n2)
	return LogLikRatio(l0, la)
}

// RegionVsOutsideLRT computes the likelihood-ratio statistic of Sacharidis et
// al. for one region against everything outside it. p, n are the region's
// positives and count; P, N are the global totals (Equations 1 and 2 of the
// paper). Under H0 a single global rate generates all outcomes; under Ha the
// region and its complement each have their own rate.
func RegionVsOutsideLRT(p, n, P, N int) float64 {
	if n <= 0 || N <= n {
		return 0
	}
	global := float64(P) / float64(N)
	l0 := BernoulliLogLik(p, n, global) + BernoulliLogLik(P-p, N-n, global)
	la := MaxBernoulliLogLik(p, n) + MaxBernoulliLogLik(P-p, N-n)
	return LogLikRatio(l0, la)
}
