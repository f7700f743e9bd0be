package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(NewBBox(Pt(0, 0), Pt(10, 5)), 10, 5)
	if g.NumCells() != 50 {
		t.Fatalf("NumCells = %d, want 50", g.NumCells())
	}
	if g.CellWidth() != 1 || g.CellHeight() != 1 {
		t.Fatalf("cell size = %v x %v, want 1x1", g.CellWidth(), g.CellHeight())
	}
	if g.String() != "10x5" {
		t.Errorf("String = %q", g.String())
	}
}

func TestGridCellIndex(t *testing.T) {
	g := NewGrid(NewBBox(Pt(0, 0), Pt(10, 5)), 10, 5)
	cases := []struct {
		p    Point
		want int
		ok   bool
	}{
		{Pt(0.5, 0.5), 0, true},
		{Pt(9.5, 0.5), 9, true},
		{Pt(0.5, 4.5), 40, true},
		{Pt(9.5, 4.5), 49, true},
		{Pt(10, 5), 49, true}, // far corner clamps into last cell
		{Pt(10, 0), 9, true},  // east edge clamps
		{Pt(5, 5), 45, true},  // north edge clamps
		{Pt(-0.1, 0), -1, false},
		{Pt(0, 5.1), -1, false},
	}
	for _, c := range cases {
		got, ok := g.CellIndex(c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("CellIndex(%v) = (%d,%v), want (%d,%v)", c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestGridCellBoundsRoundTrip(t *testing.T) {
	g := NewGrid(NewBBox(Pt(-4, 2), Pt(8, 11)), 6, 3)
	for i := 0; i < g.NumCells(); i++ {
		b := g.CellBounds(i)
		idx, ok := g.CellIndex(b.Center())
		if !ok || idx != i {
			t.Errorf("center of cell %d maps to %d (ok=%v)", i, idx, ok)
		}
		row, col := g.RowCol(i)
		if g.Index(row, col) != i {
			t.Errorf("RowCol/Index round trip failed for %d", i)
		}
	}
}

func TestGridPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero columns")
		}
	}()
	NewGrid(NewBBox(Pt(0, 0), Pt(1, 1)), 0, 5)
}

// TestCheckGridDims pins the user-input grid check: every accepted size is
// one NewGrid takes within maxGridCells, and products that overflow int are
// refused, not wrapped past the bound.
func TestCheckGridDims(t *testing.T) {
	for _, c := range []struct {
		cols, rows int
		ok         bool
	}{
		{100, 50, true},
		{1, 1, true},
		{maxGridCells, 1, true},
		{1000, 1000, true},
		{1000, 1001, false},
		{maxGridCells + 1, 1, false},
		{0, 50, false},
		{100, 0, false},
		{-1, 50, false},
		{1 << 32, 1 << 32, false},       // product wraps to 0
		{3037000500, 3037000500, false}, // product wraps negative
		{math.MaxInt, math.MaxInt, false},
	} {
		err := CheckGridDims(c.cols, c.rows)
		if (err == nil) != c.ok {
			t.Errorf("CheckGridDims(%d, %d) = %v, want ok=%v", c.cols, c.rows, err, c.ok)
		}
		if err == nil {
			NewGrid(NewBBox(Pt(0, 0), Pt(1, 1)), c.cols, c.rows) // must not panic
		}
	}
}

func TestGridCellBoundsPanicsOutOfRange(t *testing.T) {
	g := NewGrid(NewBBox(Pt(0, 0), Pt(1, 1)), 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	g.CellBounds(4)
}

// Property: every in-bounds point maps to exactly one cell whose bounds
// contain it (modulo the clamping of the far edges).
func TestGridPartitionProperty(t *testing.T) {
	g := NewGrid(ContinentalUS, 100, 50)
	f := func(fx, fy float64) bool {
		u := math.Abs(math.Mod(fx, 1))
		v := math.Abs(math.Mod(fy, 1))
		p := Pt(
			g.Bounds.Min.X+u*g.Bounds.Width()*0.9999,
			g.Bounds.Min.Y+v*g.Bounds.Height()*0.9999,
		)
		idx, ok := g.CellIndex(p)
		if !ok {
			return false
		}
		return g.CellBounds(idx).ContainsClosed(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: cells tile the grid — total area of all cells equals the grid
// bounds area.
func TestGridTilesArea(t *testing.T) {
	g := NewGrid(NewBBox(Pt(0, 0), Pt(7, 3)), 7, 3)
	var sum float64
	for i := 0; i < g.NumCells(); i++ {
		sum += g.CellBounds(i).Area()
	}
	if math.Abs(sum-g.Bounds.Area()) > 1e-9 {
		t.Errorf("cell areas sum %v, grid area %v", sum, g.Bounds.Area())
	}
}

// cellIndexPerPoint is the reference cell lookup: both cell sizes divided
// out again for every point.
func cellIndexPerPoint(g Grid, p Point) (int, bool) {
	if !g.Bounds.ContainsClosed(p) {
		return -1, false
	}
	col := int((p.X - g.Bounds.Min.X) / g.CellWidth())
	row := int((p.Y - g.Bounds.Min.Y) / g.CellHeight())
	if col >= g.Cols {
		col = g.Cols - 1
	}
	if row >= g.Rows {
		row = g.Rows - 1
	}
	return row*g.Cols + col, true
}

// TestLocatorMatchesPerPointLookup pins Locator, and Grid.CellIndex through
// it, to the per-point arithmetic on interior points, on cell boundaries,
// on the Min edges, on the Max edges (clamped into the last row and
// column), and one float step outside each edge.
func TestLocatorMatchesPerPointLookup(t *testing.T) {
	grids := []Grid{
		NewGrid(ContinentalUS, 100, 50),
		NewGrid(ContinentalUS, 7, 3),
		NewGrid(NewBBox(Pt(0, 0), Pt(3000, 1)), 3000, 1),
		NewGrid(NewBBox(Pt(-0.3, -17.1), Pt(0.7, 2.9)), 13, 29),
	}
	rng := rand.New(rand.NewSource(3))
	for _, g := range grids {
		b := g.Bounds
		xs := []float64{b.Min.X, b.Max.X, math.Nextafter(b.Min.X, math.Inf(-1)), math.Nextafter(b.Max.X, math.Inf(1))}
		ys := []float64{b.Min.Y, b.Max.Y, math.Nextafter(b.Min.Y, math.Inf(-1)), math.Nextafter(b.Max.Y, math.Inf(1))}
		for c := 1; c < g.Cols; c++ {
			x := b.Min.X + float64(c)*g.CellWidth()
			xs = append(xs, x, math.Nextafter(x, math.Inf(-1)))
		}
		for r := 1; r < g.Rows; r++ {
			y := b.Min.Y + float64(r)*g.CellHeight()
			ys = append(ys, y, math.Nextafter(y, math.Inf(-1)))
		}
		for i := 0; i < 50; i++ {
			xs = append(xs, b.Min.X+rng.Float64()*b.Width())
			ys = append(ys, b.Min.Y+rng.Float64()*b.Height())
		}
		loc := g.Locator()
		for _, x := range xs {
			for _, y := range ys {
				p := Pt(x, y)
				wi, wok := cellIndexPerPoint(g, p)
				if i, ok := loc.CellIndex(p); i != wi || ok != wok {
					t.Fatalf("grid %v point %v: Locator says (%d, %v), the per-point lookup (%d, %v)", g, p, i, ok, wi, wok)
				}
				if i, ok := g.CellIndex(p); i != wi || ok != wok {
					t.Fatalf("grid %v point %v: CellIndex says (%d, %v), the per-point lookup (%d, %v)", g, p, i, ok, wi, wok)
				}
			}
		}
	}
}
