package geo

import (
	"fmt"
	"strconv"
)

// Well-Known Text (WKT) encoding for the geometry types, the lingua franca
// of spatial databases: POINT and POLYGON are supported, which covers
// everything the LC-SF pipeline stores (application/outlet locations and
// tract footprints).

// MarshalWKT renders the point as "POINT (x y)".
func (p Point) MarshalWKT() string {
	return fmt.Sprintf("POINT (%s %s)", fmtCoord(p.X), fmtCoord(p.Y))
}

func fmtCoord(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
