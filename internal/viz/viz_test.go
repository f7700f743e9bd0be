package viz

import (
	"strings"
	"testing"

	"lcsf/internal/geo"
)

func grid3x2() geo.Grid {
	return geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(3, 2)), 3, 2)
}

func TestGridMapLayout(t *testing.T) {
	g := grid3x2()
	// Mark cell 0 (south-west) and cell 5 (north-east).
	out := GridMap(g, func(idx int) rune {
		switch idx {
		case 0:
			return 'S'
		case 5:
			return 'N'
		}
		return 0
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	// North row first: N at east end of first line, S at west of second.
	if lines[0] != "..N" {
		t.Errorf("north row = %q", lines[0])
	}
	if lines[1] != "S.." {
		t.Errorf("south row = %q", lines[1])
	}
}

func TestHighlightMap(t *testing.T) {
	g := grid3x2()
	out := HighlightMap(g, []map[int]bool{
		{0: true, 1: true},
		{1: true, 2: true}, // cell 1 already taken by set 0
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[1] != "112" {
		t.Errorf("south row = %q, want 112", lines[1])
	}
}

func TestSetRuneRanges(t *testing.T) {
	if setRune(0) != '1' || setRune(8) != '9' {
		t.Error("digit range wrong")
	}
	if setRune(9) != 'a' || setRune(34) != 'z' {
		t.Error("letter range wrong")
	}
	if setRune(35) != '#' {
		t.Error("overflow rune wrong")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table(
		[]string{"Partitioning", "Pairs"},
		[][]string{{"10x10", "65"}, {"100x50", "493"}},
	)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "Partitioning  Pairs") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "100x50        493") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestFormatters(t *testing.T) {
	if F(0.12345, 2) != "0.12" {
		t.Errorf("F = %q", F(0.12345, 2))
	}
	if D(42) != "42" {
		t.Errorf("D = %q", D(42))
	}
}
