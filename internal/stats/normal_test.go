package stats

import (
	"testing"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-2.5758293035489004, 0.005},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEq(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalSFComplements(t *testing.T) {
	for _, z := range []float64{-3, -1, 0, 0.5, 2, 4} {
		if got := NormalCDF(z) + NormalSF(z); !almostEq(got, 1, 1e-12) {
			t.Errorf("CDF+SF at %v = %v", z, got)
		}
	}
	// Far tail should stay positive rather than underflow to exactly the
	// complement rounding.
	if sf := NormalSF(8); sf <= 0 || sf > 1e-14 {
		t.Errorf("NormalSF(8) = %v", sf)
	}
}

func TestTwoSidedP(t *testing.T) {
	if p := TwoSidedP(0); p != 1 {
		t.Errorf("TwoSidedP(0) = %v", p)
	}
	if p := TwoSidedP(1.959963984540054); !almostEq(p, 0.05, 1e-9) {
		t.Errorf("TwoSidedP(1.96) = %v, want 0.05", p)
	}
	if p1, p2 := TwoSidedP(2.3), TwoSidedP(-2.3); p1 != p2 {
		t.Errorf("TwoSidedP not symmetric: %v vs %v", p1, p2)
	}
}
