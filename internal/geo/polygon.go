package geo

// Polygon is a simple polygon given by its ring of vertices. The ring may be
// open (last vertex != first); containment treats it as implicitly closed.
// Vertex order may be clockwise or counter-clockwise.
type Polygon struct {
	Ring []Point
}

// NewRect returns a rectangular polygon covering the bounding box. Census
// tracts in the synthetic model are rectangles, but all predicates work for
// arbitrary simple polygons.
func NewRect(b BBox) Polygon {
	return Polygon{Ring: []Point{
		b.Min,
		{X: b.Max.X, Y: b.Min.Y},
		b.Max,
		{X: b.Min.X, Y: b.Max.Y},
	}}
}
