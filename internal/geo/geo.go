// Package geo provides the geometric primitives the LC-spatial-fairness
// pipeline is built on: points, bounding boxes, polygons, distance
// computations, uniform grids, and an STR-packed R-tree for spatial joins.
//
// The package is intentionally self-contained: the paper's pipeline needs a
// thin but correct geospatial layer (spatial joins of loan applications and
// points of interest against census tracts, grid partitioning of a region),
// and no such layer exists in the Go standard library.
//
// Coordinates are geographic: X is longitude in degrees, Y is latitude in
// degrees. All planar predicates (containment, intersection) operate directly
// on the degree coordinates, which is how the paper's grid partitionings are
// defined; Haversine is available when a metric distance is needed.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used by Haversine, in kilometers.
const EarthRadiusKm = 6371.0088

// Point is a location in degrees: X = longitude, Y = latitude.
type Point struct {
	X float64 // longitude, degrees
	Y float64 // latitude, degrees
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y) }

// DistanceTo returns the Euclidean (planar, degree-space) distance to q.
func (p Point) DistanceTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// HaversineKm returns the great-circle distance in kilometers between p and q.
func (p Point) HaversineKm(q Point) float64 {
	lat1 := p.Y * math.Pi / 180
	lat2 := q.Y * math.Pi / 180
	dLat := (q.Y - p.Y) * math.Pi / 180
	dLon := (q.X - p.X) * math.Pi / 180
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// BBox is an axis-aligned bounding box. Min is the lower-left corner
// (west/south), Max the upper-right corner (east/north). A BBox is valid when
// Min.X <= Max.X and Min.Y <= Max.Y.
type BBox struct {
	Min, Max Point
}

// NewBBox returns the bounding box spanning the two corner points, normalizing
// the corner order.
func NewBBox(a, b Point) BBox {
	return BBox{
		Min: Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// EmptyBBox returns a degenerate box suitable as the identity for Extend.
func EmptyBBox() BBox {
	return BBox{
		Min: Point{X: math.Inf(1), Y: math.Inf(1)},
		Max: Point{X: math.Inf(-1), Y: math.Inf(-1)},
	}
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool { return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y }

// Contains reports whether p lies inside the box. The box is closed on its
// minimum edges and open on its maximum edges, so that adjacent grid cells
// partition space without overlap.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X < b.Max.X && p.Y >= b.Min.Y && p.Y < b.Max.Y
}

// ContainsClosed reports whether p lies inside the box including all edges.
func (b BBox) ContainsClosed(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Intersects reports whether the two boxes share any point (closed test).
func (b BBox) Intersects(o BBox) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// Extend returns the smallest box containing both b and p.
func (b BBox) Extend(p Point) BBox {
	return BBox{
		Min: Point{X: math.Min(b.Min.X, p.X), Y: math.Min(b.Min.Y, p.Y)},
		Max: Point{X: math.Max(b.Max.X, p.X), Y: math.Max(b.Max.Y, p.Y)},
	}
}

// Union returns the smallest box containing both boxes.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return BBox{
		Min: Point{X: math.Min(b.Min.X, o.Min.X), Y: math.Min(b.Min.Y, o.Min.Y)},
		Max: Point{X: math.Max(b.Max.X, o.Max.X), Y: math.Max(b.Max.Y, o.Max.Y)},
	}
}

// Width returns the longitudinal extent of the box in degrees.
func (b BBox) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the latitudinal extent of the box in degrees.
func (b BBox) Height() float64 { return b.Max.Y - b.Min.Y }

// Area returns the planar (degree-squared) area of the box.
func (b BBox) Area() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.Width() * b.Height()
}

// Center returns the centroid of the box.
func (b BBox) Center() Point {
	return Point{X: (b.Min.X + b.Max.X) / 2, Y: (b.Min.Y + b.Max.Y) / 2}
}

// String implements fmt.Stringer.
func (b BBox) String() string {
	return fmt.Sprintf("[%s - %s]", b.Min, b.Max)
}

// ContinentalUS is the bounding box used throughout the experiments as the
// region R: roughly the contiguous United States.
var ContinentalUS = BBox{
	Min: Point{X: -124.8, Y: 24.4},
	Max: Point{X: -66.9, Y: 49.4},
}
