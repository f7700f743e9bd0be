// Package viz renders grids, audit results, and experiment tables as text.
//
// The paper's figures are maps of the United States with flagged partitions
// highlighted; this package reproduces them as terminal heat-maps (one
// character per grid cell, row 0 at the south so the map reads like a map)
// and renders the experiment tables with aligned columns.
package viz

import (
	"fmt"
	"strings"

	"lcsf/internal/geo"
)

// GridMap renders a character map of a grid. cell returns the rune to draw
// for each cell index; returning 0 draws the background dot. The output has
// Rows lines of Cols runes, northernmost row first.
func GridMap(g geo.Grid, cell func(idx int) rune) string {
	var b strings.Builder
	b.Grow((g.Cols + 1) * g.Rows)
	for row := g.Rows - 1; row >= 0; row-- {
		for col := 0; col < g.Cols; col++ {
			r := cell(g.Index(row, col))
			if r == 0 {
				r = '.'
			}
			b.WriteRune(r)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HighlightMap renders a grid map with the given cell sets highlighted. The
// sets are drawn in order with the runes '1'..'9' then 'a'..'z'; a cell in
// several sets shows the first set that contains it.
func HighlightMap(g geo.Grid, sets []map[int]bool) string {
	return GridMap(g, func(idx int) rune {
		for si, s := range sets {
			if s[idx] {
				return setRune(si)
			}
		}
		return 0
	})
}

func setRune(i int) rune {
	switch {
	case i < 9:
		return rune('1' + i)
	case i < 9+26:
		return rune('a' + (i - 9))
	default:
		return '#'
	}
}

// Table renders rows with aligned columns. header names the columns; each
// row must have the same arity. Cells are left-aligned strings.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// F formats a float for table cells with the given number of decimals.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// D formats an int for table cells.
func D(v int) string { return fmt.Sprintf("%d", v) }
