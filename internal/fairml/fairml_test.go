package fairml

import (
	"math"
	"testing"
)

func TestDisparateImpact(t *testing.T) {
	prot := GroupOutcomes{Positives: 60, Total: 100}
	ref := GroupOutcomes{Positives: 80, Total: 100}
	if got := DisparateImpact(prot, ref); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("DI = %v, want 0.75", got)
	}
	if !ViolatesEightyPercentRule(prot, ref) {
		t.Error("0.75 should violate the 80% rule")
	}
	ok := GroupOutcomes{Positives: 78, Total: 100}
	if ViolatesEightyPercentRule(ok, ref) {
		t.Error("0.975 should not violate the 80% rule")
	}
}

func TestDisparateImpactDegenerate(t *testing.T) {
	if !math.IsNaN(DisparateImpact(GroupOutcomes{}, GroupOutcomes{Positives: 1, Total: 2})) {
		t.Error("empty protected group should be NaN")
	}
	if !math.IsNaN(DisparateImpact(GroupOutcomes{Positives: 1, Total: 2}, GroupOutcomes{})) {
		t.Error("empty reference group should be NaN")
	}
	if !math.IsNaN(DisparateImpact(GroupOutcomes{Positives: 1, Total: 2}, GroupOutcomes{Positives: 0, Total: 5})) {
		t.Error("zero reference rate should be NaN")
	}
	if ViolatesEightyPercentRule(GroupOutcomes{}, GroupOutcomes{}) {
		t.Error("NaN DI must not report a violation")
	}
}

func TestStatisticalParityGap(t *testing.T) {
	a := GroupOutcomes{Positives: 50, Total: 100}
	b := GroupOutcomes{Positives: 70, Total: 100}
	if got := StatisticalParityGap(a, b); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("gap = %v, want 0.2", got)
	}
	if got := StatisticalParityGap(b, a); math.Abs(got-0.2) > 1e-12 {
		t.Error("gap should be symmetric")
	}
	if !math.IsNaN(StatisticalParityGap(a, GroupOutcomes{})) {
		t.Error("empty group should be NaN")
	}
}

func TestRate(t *testing.T) {
	if got := (GroupOutcomes{Positives: 3, Total: 4}).Rate(); got != 0.75 {
		t.Errorf("Rate = %v", got)
	}
	if !math.IsNaN((GroupOutcomes{}).Rate()) {
		t.Error("empty rate should be NaN")
	}
}

// Offsetting local disparities wash out globally — the blindness Section
// 5.1.1 demonstrates with the ~0.96 disparate impact on Bank of America.
func TestGlobalDIHidesOffsettingLocalBias(t *testing.T) {
	// Region A: protected group strongly disadvantaged.
	// Region B: protected group slightly advantaged, and much larger.
	protA := GroupOutcomes{Positives: 20, Total: 100}
	refA := GroupOutcomes{Positives: 70, Total: 100}
	protB := GroupOutcomes{Positives: 720, Total: 1000}
	refB := GroupOutcomes{Positives: 680, Total: 1000}

	if !ViolatesEightyPercentRule(protA, refA) {
		t.Fatal("region A should violate locally")
	}
	global := DisparateImpact(
		GroupOutcomes{Positives: protA.Positives + protB.Positives, Total: protA.Total + protB.Total},
		GroupOutcomes{Positives: refA.Positives + refB.Positives, Total: refA.Total + refB.Total},
	)
	if global < EightyPercentThreshold {
		t.Errorf("global DI = %v; the point of this fixture is that it stays above 0.8", global)
	}
}
