package geo

import (
	"fmt"
	"strconv"
	"strings"
)

// Well-Known Text (WKT) encoding for the geometry types, the lingua franca
// of spatial databases: POINT and POLYGON are supported, which covers
// everything the LC-SF pipeline stores (application/outlet locations and
// tract footprints).

// MarshalWKT renders the point as "POINT (x y)".
func (p Point) MarshalWKT() string {
	return fmt.Sprintf("POINT (%s %s)", fmtCoord(p.X), fmtCoord(p.Y))
}

// MarshalWKT renders the polygon as "POLYGON ((x y, ...))", closing the ring
// if the input ring is open. An empty polygon renders as "POLYGON EMPTY".
func (pg Polygon) MarshalWKT() string {
	if len(pg.Ring) == 0 {
		return "POLYGON EMPTY"
	}
	var b strings.Builder
	b.WriteString("POLYGON ((")
	for i, p := range pg.Ring {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(fmtCoord(p.X))
		b.WriteByte(' ')
		b.WriteString(fmtCoord(p.Y))
	}
	if pg.Ring[0] != pg.Ring[len(pg.Ring)-1] {
		b.WriteString(", ")
		b.WriteString(fmtCoord(pg.Ring[0].X))
		b.WriteByte(' ')
		b.WriteString(fmtCoord(pg.Ring[0].Y))
	}
	b.WriteString("))")
	return b.String()
}

func fmtCoord(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
