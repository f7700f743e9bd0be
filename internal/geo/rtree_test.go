package geo

import (
	"math/rand"
	"sort"
	"testing"
)

func TestRTreeEmpty(t *testing.T) {
	tr := BuildRTree(nil, nil)
	if len(tr.leaves) != 0 {
		t.Fatalf("%d leaves", len(tr.leaves))
	}
	if got := tr.QueryPoint(Pt(0, 0), nil); len(got) != 0 {
		t.Errorf("QueryPoint on empty tree = %v", got)
	}
}

func TestRTreeSingle(t *testing.T) {
	b := NewBBox(Pt(1, 1), Pt(2, 2))
	tr := BuildRTree([]BBox{b}, []int{42})
	if got := tr.QueryPoint(Pt(1.5, 1.5), nil); len(got) != 1 || got[0] != 42 {
		t.Errorf("QueryPoint = %v, want [42]", got)
	}
	if got := tr.QueryPoint(Pt(3, 3), nil); len(got) != 0 {
		t.Errorf("QueryPoint outside = %v", got)
	}
}

func TestRTreeIDsDefaultToIndex(t *testing.T) {
	boxes := []BBox{
		NewBBox(Pt(0, 0), Pt(1, 1)),
		NewBBox(Pt(2, 2), Pt(3, 3)),
	}
	tr := BuildRTree(boxes, nil)
	if got := tr.QueryPoint(Pt(2.5, 2.5), nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("QueryPoint = %v, want [1]", got)
	}
}

func TestRTreePanicsOnIDMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildRTree(make([]BBox, 2), []int{1})
}

// buildRandomBoxes returns n random small boxes in [0,100)^2 with a fixed seed.
func buildRandomBoxes(n int, seed int64) []BBox {
	rng := rand.New(rand.NewSource(seed))
	boxes := make([]BBox, n)
	for i := range boxes {
		x, y := rng.Float64()*100, rng.Float64()*100
		w, h := rng.Float64()*3, rng.Float64()*3
		boxes[i] = NewBBox(Pt(x, y), Pt(x+w, y+h))
	}
	return boxes
}

func TestRTreeMatchesLinearScanPointQueries(t *testing.T) {
	boxes := buildRandomBoxes(500, 1)
	tr := BuildRTree(boxes, nil)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 200; q++ {
		p := Pt(rng.Float64()*110-5, rng.Float64()*110-5)
		var want []int
		for i, b := range boxes {
			if b.ContainsClosed(p) {
				want = append(want, i)
			}
		}
		got := tr.QueryPoint(p, nil)
		sort.Ints(got)
		if !equalInts(got, want) {
			t.Fatalf("QueryPoint(%v): got %v, want %v", p, got, want)
		}
	}
}

func TestRTreeDstReuse(t *testing.T) {
	boxes := buildRandomBoxes(100, 5)
	tr := BuildRTree(boxes, nil)
	buf := make([]int, 0, 32)
	a := tr.QueryPoint(Pt(50, 50), buf[:0])
	b := tr.QueryPoint(Pt(10, 10), buf[:0])
	_ = a
	// b must reflect only the second query.
	var want []int
	for i, bx := range boxes {
		if bx.ContainsClosed(Pt(10, 10)) {
			want = append(want, i)
		}
	}
	sort.Ints(b)
	if !equalInts(b, want) {
		t.Errorf("dst reuse broke results: got %v want %v", b, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
