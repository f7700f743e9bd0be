package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBBoxContainsHalfOpen(t *testing.T) {
	b := NewBBox(Pt(0, 0), Pt(10, 5))
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true},    // min corner included
		{Pt(10, 5), false},  // max corner excluded
		{Pt(5, 2.5), true},  // interior
		{Pt(10, 2), false},  // east edge excluded
		{Pt(5, 5), false},   // north edge excluded
		{Pt(0, 4.99), true}, // west edge included
		{Pt(-1, 2), false},
		{Pt(5, -0.1), false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !b.ContainsClosed(Pt(10, 5)) {
		t.Error("ContainsClosed should include max corner")
	}
}

func TestBBoxNormalization(t *testing.T) {
	b := NewBBox(Pt(10, 5), Pt(0, 0))
	if b.Min != Pt(0, 0) || b.Max != Pt(10, 5) {
		t.Errorf("NewBBox did not normalize corners: %v", b)
	}
}

func TestBBoxUnionExtendArea(t *testing.T) {
	a := NewBBox(Pt(0, 0), Pt(1, 1))
	b := NewBBox(Pt(2, 2), Pt(3, 4))
	u := a.Union(b)
	if u.Min != Pt(0, 0) || u.Max != Pt(3, 4) {
		t.Errorf("Union = %v", u)
	}
	if got := u.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	e := EmptyBBox()
	if !e.IsEmpty() {
		t.Error("EmptyBBox should be empty")
	}
	if e.Area() != 0 {
		t.Error("empty box area should be 0")
	}
	if got := e.Union(a); got != a {
		t.Errorf("empty.Union(a) = %v, want %v", got, a)
	}
	if got := a.Union(e); got != a {
		t.Errorf("a.Union(empty) = %v, want %v", got, a)
	}
	ext := e.Extend(Pt(1, 2))
	if ext.Min != Pt(1, 2) || ext.Max != Pt(1, 2) {
		t.Errorf("Extend on empty = %v", ext)
	}
}

func TestBBoxIntersects(t *testing.T) {
	a := NewBBox(Pt(0, 0), Pt(2, 2))
	cases := []struct {
		b    BBox
		want bool
	}{
		{NewBBox(Pt(1, 1), Pt(3, 3)), true},
		{NewBBox(Pt(2, 2), Pt(3, 3)), true}, // touching corner counts
		{NewBBox(Pt(3, 3), Pt(4, 4)), false},
		{NewBBox(Pt(-1, -1), Pt(5, 5)), true}, // containment
		{NewBBox(Pt(0.5, 0.5), Pt(1, 1)), true},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects not symmetric for %v", c.b)
		}
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	// Los Angeles to New York is roughly 3936 km.
	la := Pt(-118.2437, 34.0522)
	ny := Pt(-74.0060, 40.7128)
	d := la.HaversineKm(ny)
	if d < 3900 || d > 3970 {
		t.Errorf("LA-NY haversine = %v km, want ~3936", d)
	}
	if got := la.HaversineKm(la); got != 0 {
		t.Errorf("self distance = %v, want 0", got)
	}
}

func TestHaversineSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Pt(math.Mod(ax, 180), math.Mod(ay, 89))
		b := Pt(math.Mod(bx, 180), math.Mod(by, 89))
		d1, d2 := a.HaversineKm(b), b.HaversineKm(a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEuclideanTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		return a.DistanceTo(c) <= a.DistanceTo(b)+b.DistanceTo(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContinentalUSSanity(t *testing.T) {
	if ContinentalUS.IsEmpty() {
		t.Fatal("ContinentalUS empty")
	}
	// Denver should be inside, London outside.
	if !ContinentalUS.Contains(Pt(-104.99, 39.74)) {
		t.Error("Denver should be inside ContinentalUS")
	}
	if ContinentalUS.Contains(Pt(-0.12, 51.5)) {
		t.Error("London should be outside ContinentalUS")
	}
}
