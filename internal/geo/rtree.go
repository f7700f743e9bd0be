package geo

import "sort"

// RTree is a static, bulk-loaded R-tree over rectangles, built with the
// Sort-Tile-Recursive (STR) packing algorithm. It supports point and window
// queries and is the index behind the spatial joins that attach census-tract
// attributes to loan applications and points of interest.
//
// The tree is immutable after construction, which matches the pipeline: the
// tract set is fixed before any join runs.
type RTree struct {
	nodes  []rtreeNode
	leaves []rtreeEntry
	root   int
	degree int
}

type rtreeEntry struct {
	box BBox
	id  int // caller-supplied identifier
}

type rtreeNode struct {
	box      BBox
	children []int // node indices, or leaf-entry indices when leaf
	leaf     bool
}

// rtreeDegree is the maximum fan-out of each node.
const rtreeDegree = 16

// BuildRTree bulk-loads an R-tree from the given boxes. ids[i] is the caller
// identifier returned by queries for boxes[i]; when ids is nil the position
// index is used. It panics if ids is non-nil with a different length, since
// that is a programming error at the call site.
func BuildRTree(boxes []BBox, ids []int) *RTree {
	if ids != nil && len(ids) != len(boxes) {
		panic("geo: BuildRTree ids length mismatch")
	}
	t := &RTree{degree: rtreeDegree, root: -1}
	t.leaves = make([]rtreeEntry, len(boxes))
	for i, b := range boxes {
		id := i
		if ids != nil {
			id = ids[i]
		}
		t.leaves[i] = rtreeEntry{box: b, id: id}
	}
	if len(boxes) == 0 {
		return t
	}

	// STR: sort by center X, slice into vertical strips, sort each strip by
	// center Y, pack runs of `degree` entries into leaf nodes.
	order := make([]int, len(boxes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return t.leaves[order[a]].box.Center().X < t.leaves[order[b]].box.Center().X
	})
	nLeaves := (len(order) + t.degree - 1) / t.degree
	nStrips := intSqrtCeil(nLeaves)
	stripSize := nStrips * t.degree

	var level []int // node indices at the current level
	for s := 0; s < len(order); s += stripSize {
		end := min(s+stripSize, len(order))
		strip := order[s:end]
		sort.Slice(strip, func(a, b int) bool {
			return t.leaves[strip[a]].box.Center().Y < t.leaves[strip[b]].box.Center().Y
		})
		for i := 0; i < len(strip); i += t.degree {
			j := min(i+t.degree, len(strip))
			node := rtreeNode{leaf: true, box: EmptyBBox()}
			node.children = append(node.children, strip[i:j]...)
			for _, e := range node.children {
				node.box = node.box.Union(t.leaves[e].box)
			}
			t.nodes = append(t.nodes, node)
			level = append(level, len(t.nodes)-1)
		}
	}

	// Pack upper levels until a single root remains.
	for len(level) > 1 {
		var next []int
		for i := 0; i < len(level); i += t.degree {
			j := min(i+t.degree, len(level))
			node := rtreeNode{box: EmptyBBox()}
			node.children = append(node.children, level[i:j]...)
			for _, c := range node.children {
				node.box = node.box.Union(t.nodes[c].box)
			}
			t.nodes = append(t.nodes, node)
			next = append(next, len(t.nodes)-1)
		}
		level = next
	}
	t.root = level[0]
	return t
}

// QueryPoint appends to dst the ids of all boxes containing p (closed
// containment) and returns the extended slice. Passing a reused dst slice
// avoids allocation in hot join loops.
func (t *RTree) QueryPoint(p Point, dst []int) []int {
	if t.root < 0 {
		return dst
	}
	return t.queryPoint(t.root, p, dst)
}

func (t *RTree) queryPoint(n int, p Point, dst []int) []int {
	node := &t.nodes[n]
	if !node.box.ContainsClosed(p) {
		return dst
	}
	if node.leaf {
		for _, e := range node.children {
			if t.leaves[e].box.ContainsClosed(p) {
				dst = append(dst, t.leaves[e].id)
			}
		}
		return dst
	}
	for _, c := range node.children {
		dst = t.queryPoint(c, p, dst)
	}
	return dst
}

func intSqrtCeil(n int) int {
	if n <= 0 {
		return 0
	}
	r := 1
	for r*r < n {
		r++
	}
	return r
}
