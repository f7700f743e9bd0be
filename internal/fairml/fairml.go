// Package fairml implements the classical (aspatial) fair-ML metrics the
// paper uses as baselines and building blocks: disparate impact, the 80%
// rule, statistical parity, and equal opportunity.
//
// These metrics consider only outcomes and protected-group membership — not
// location and not non-protected attributes — which is exactly why Section
// 5.1.1 finds them blind to spatially localized bias: offsetting local
// disparities wash out in the global ratio.
package fairml

import "math"

// GroupOutcomes aggregates one group's outcome counts.
type GroupOutcomes struct {
	Positives int // members with the positive outcome
	Total     int // members
}

// Rate returns the group's positive rate, or NaN when empty.
func (g GroupOutcomes) Rate() float64 {
	if g.Total == 0 {
		return math.NaN()
	}
	return float64(g.Positives) / float64(g.Total)
}

// DisparateImpact returns the ratio of the protected group's positive rate
// to the reference group's (Definition 5.1 of the paper). Values near 1 mean
// parity; below EightyPercentThreshold the disparity is legally significant
// under the EEOC's p%-rule. Returns NaN when either group is empty or the
// reference rate is zero.
func DisparateImpact(protected, reference GroupOutcomes) float64 {
	pr, rr := protected.Rate(), reference.Rate()
	if math.IsNaN(pr) || math.IsNaN(rr) || rr == 0 { //lint:floateq-ok zero-rate-sentinel
		return math.NaN()
	}
	return pr / rr
}

// EightyPercentThreshold is the disparate-impact level below which the EEOC
// p%-rule flags significant bias.
const EightyPercentThreshold = 0.80

// ViolatesEightyPercentRule reports whether the disparate impact of the two
// groups falls below the 80% threshold.
func ViolatesEightyPercentRule(protected, reference GroupOutcomes) bool {
	di := DisparateImpact(protected, reference)
	return !math.IsNaN(di) && di < EightyPercentThreshold
}

// StatisticalParityGap returns the absolute difference of the two groups'
// positive rates (Definition 5.2: statistical parity holds when the gap is
// zero). Returns NaN when either group is empty.
func StatisticalParityGap(a, b GroupOutcomes) float64 {
	ra, rb := a.Rate(), b.Rate()
	if math.IsNaN(ra) || math.IsNaN(rb) {
		return math.NaN()
	}
	return math.Abs(ra - rb)
}
