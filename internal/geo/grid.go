package geo

import "fmt"

// Grid imposes a regular Cols x Rows lattice over a bounding box. This is the
// partitioning device used throughout the paper: a "100 x 50 partitioning"
// divides the region into 100 columns and 50 rows of equal-size cells.
//
// Cells are indexed row-major: index = row*Cols + col, with row 0 at the
// southern edge and col 0 at the western edge. Cells are half-open (closed on
// their south/west edges) so that every interior point belongs to exactly one
// cell; points on the extreme north/east boundary of the grid are clamped
// into the last row/column so the grid covers the closed region.
type Grid struct {
	Bounds BBox
	Cols   int
	Rows   int
}

// maxGridCells bounds the cell count of a grid sized from user input — a
// query string or a command line — so one request cannot ask for an absurd
// region roster.
const maxGridCells = 1_000_000

// CheckGridDims reports whether cols x rows is a grid NewGrid accepts with
// at most maxGridCells cells. The bound is checked by division, so
// dimensions whose product overflows int are refused rather than wrapped.
func CheckGridDims(cols, rows int) error {
	if cols <= 0 || rows <= 0 {
		return fmt.Errorf("grid %dx%d: dimensions must be positive", cols, rows)
	}
	if cols > maxGridCells/rows {
		return fmt.Errorf("grid %dx%d too large (at most %d cells)", cols, rows, maxGridCells)
	}
	return nil
}

// NewGrid returns a grid with the given dimensions over bounds. It panics if
// cols or rows is not positive or bounds is empty, since a grid is always
// constructed from static experiment parameters.
func NewGrid(bounds BBox, cols, rows int) Grid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("geo: invalid grid dimensions %dx%d", cols, rows))
	}
	if bounds.IsEmpty() {
		panic("geo: empty grid bounds")
	}
	return Grid{Bounds: bounds, Cols: cols, Rows: rows}
}

// NumCells returns the total number of cells, Cols*Rows.
func (g Grid) NumCells() int { return g.Cols * g.Rows }

// CellWidth returns the longitudinal size of one cell in degrees.
func (g Grid) CellWidth() float64 { return g.Bounds.Width() / float64(g.Cols) }

// CellHeight returns the latitudinal size of one cell in degrees.
func (g Grid) CellHeight() float64 { return g.Bounds.Height() / float64(g.Rows) }

// CellIndex returns the row-major index of the cell containing p and true,
// or -1 and false when p is outside the grid. Points on the far north/east
// boundary are clamped into the adjacent cell.
func (g Grid) CellIndex(p Point) (int, bool) { return g.Locator().CellIndex(p) }

// Locator is a grid's cell lookup with the cell width and height computed
// once, for callers that place many points in one grid. Its CellIndex is
// the grid's: the sizes are the same float64 values CellWidth and
// CellHeight return, so every index is too.
type Locator struct {
	g    Grid
	w, h float64
}

// Locator returns the grid's cell lookup.
func (g Grid) Locator() Locator {
	return Locator{g: g, w: g.CellWidth(), h: g.CellHeight()}
}

// CellIndex is Grid.CellIndex.
func (l Locator) CellIndex(p Point) (int, bool) {
	g := &l.g
	if !g.Bounds.ContainsClosed(p) {
		return -1, false
	}
	col := int((p.X - g.Bounds.Min.X) / l.w)
	row := int((p.Y - g.Bounds.Min.Y) / l.h)
	if col >= g.Cols {
		col = g.Cols - 1
	}
	if row >= g.Rows {
		row = g.Rows - 1
	}
	return row*g.Cols + col, true
}

// CellBounds returns the bounding box of the cell with the given row-major
// index. It panics on an out-of-range index.
func (g Grid) CellBounds(idx int) BBox {
	if idx < 0 || idx >= g.NumCells() {
		panic(fmt.Sprintf("geo: cell index %d out of range [0,%d)", idx, g.NumCells()))
	}
	row, col := idx/g.Cols, idx%g.Cols
	w, h := g.CellWidth(), g.CellHeight()
	min := Point{
		X: g.Bounds.Min.X + float64(col)*w,
		Y: g.Bounds.Min.Y + float64(row)*h,
	}
	return BBox{Min: min, Max: Point{X: min.X + w, Y: min.Y + h}}
}

// CellCenter returns the centroid of the cell with the given index.
func (g Grid) CellCenter(idx int) Point { return g.CellBounds(idx).Center() }

// RowCol returns the (row, col) coordinates of the cell with the given index.
func (g Grid) RowCol(idx int) (row, col int) { return idx / g.Cols, idx % g.Cols }

// Index returns the row-major index of the cell at (row, col).
func (g Grid) Index(row, col int) int { return row*g.Cols + col }

// String implements fmt.Stringer, printing the paper's "ColsxRows" notation.
func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.Cols, g.Rows) }
