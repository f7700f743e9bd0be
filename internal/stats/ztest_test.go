package stats

import (
	"math"
	"testing"
)

func TestTwoProportionZEqualProportions(t *testing.T) {
	res := TwoProportionZ(50, 100, 500, 1000)
	if !almostEq(res.Z, 0, 1e-12) || !almostEq(res.P, 1, 1e-12) {
		t.Errorf("equal proportions: %+v", res)
	}
}

func TestTwoProportionZKnownValue(t *testing.T) {
	// p1=0.6 (120/200), p2=0.5 (100/200), pooled=0.55:
	// z = 0.1 / sqrt(0.55*0.45*(1/200+1/200)) = 2.0100756...
	res := TwoProportionZ(120, 200, 100, 200)
	if !almostEq(res.Z, 2.0100756305184243, 1e-9) {
		t.Errorf("z = %v", res.Z)
	}
	if !almostEq(res.P, TwoSidedP(res.Z), 1e-15) {
		t.Errorf("p inconsistent with z")
	}
}

func TestTwoProportionZDegenerate(t *testing.T) {
	if res := TwoProportionZ(0, 0, 5, 10); !math.IsNaN(res.P) {
		t.Errorf("zero n should give NaN, got %+v", res)
	}
	if res := TwoProportionZ(0, 10, 0, 20); res.P != 1 {
		t.Errorf("all-zero proportions should give P=1, got %+v", res)
	}
	if res := TwoProportionZ(10, 10, 20, 20); res.P != 1 {
		t.Errorf("all-one proportions should give P=1, got %+v", res)
	}
}

func TestTwoProportionZAntisymmetric(t *testing.T) {
	a := TwoProportionZ(30, 100, 60, 120)
	b := TwoProportionZ(60, 120, 30, 100)
	if !almostEq(a.Z, -b.Z, 1e-12) || !almostEq(a.P, b.P, 1e-12) {
		t.Errorf("not antisymmetric: %+v vs %+v", a, b)
	}
}

func TestTwoProportionZDetectsLargeGap(t *testing.T) {
	res := TwoProportionZ(900, 1000, 100, 1000)
	if res.P > 1e-20 {
		t.Errorf("huge gap p = %v, want tiny", res.P)
	}
}
