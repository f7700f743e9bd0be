package partition

import (
	"fmt"
	"slices"
	"sort"

	"lcsf/internal/geo"
)

// This file makes the partition layer delta-capable: DeltaPartitioning
// maintains region aggregates under individual insert/delete updates and can
// materialize, at any point, a *Partitioning that is bit-identical to the one
// ByGrid over the current observation multiset would produce. That
// equivalence is the foundation of the delta-audit engine's correctness
// contract (delta audit ≡ cold batch audit, byte-identical). It holds
// because each region keeps its full observation multiset and a refresh
// re-selects the income sample with ByGrid's own sampler, whose result
// depends on the multiset alone (sample.go).

// DeltaPartitioning maintains a Partitioning under insert/delete updates.
// It is not safe for concurrent use; callers serialize updates and audits.
type DeltaPartitioning struct {
	part    Partitioning
	entries [][]Observation // each region's observation multiset, in sampleOrder

	seed  uint64
	capN  int
	stale map[int]struct{} // regions whose sample needs a refresh
	dirty map[int]struct{} // regions updated since the last ClearDirty
}

// NewDeltaByGrid builds a delta-capable partitioning over grid cells.
// Observations outside the grid are dropped, as in ByGrid.
func NewDeltaByGrid(grid geo.Grid, obs []Observation, opts Options) *DeltaPartitioning {
	d := &DeltaPartitioning{
		part:  Partitioning{Grid: grid, Regions: make([]Region, grid.NumCells())},
		seed:  opts.Seed,
		capN:  opts.cap(),
		stale: make(map[int]struct{}),
		dirty: make(map[int]struct{}),
	}
	d.entries = make([][]Observation, len(d.part.Regions))
	for i := range d.part.Regions {
		d.part.Regions[i].Index = i
		d.part.Regions[i].Bounds = grid.CellBounds(i)
	}
	for _, o := range obs {
		d.Insert(o)
	}
	return d
}

// locate maps a location to its grid cell, or -1 outside the grid.
func (d *DeltaPartitioning) locate(p geo.Point) int {
	idx, ok := d.part.Grid.CellIndex(p)
	if !ok {
		return -1
	}
	return idx
}

// Insert adds one observation, returning the region it landed in, or -1 when
// it falls outside the partitioned space (or carries a non-finite income)
// and was dropped.
func (d *DeltaPartitioning) Insert(o Observation) int {
	if !o.placeable() {
		return -1
	}
	idx := d.locate(o.Loc)
	if idx < 0 {
		return -1
	}
	es := d.entries[idx]
	d.entries[idx] = slices.Insert(es, position(es, &o), o)
	d.part.count(idx, &o, 1)
	d.touch(idx)
	return idx
}

// Delete removes one observation previously inserted (exact match on
// location, outcome, group, and income). It returns the region the
// observation was removed from; an observation outside the partitioned space
// returns -1 with no error, and a missing observation returns an error with
// the state unchanged.
func (d *DeltaPartitioning) Delete(o Observation) (int, error) {
	if !o.placeable() {
		return -1, nil
	}
	idx := d.locate(o.Loc)
	if idx < 0 {
		return -1, nil
	}
	es := d.entries[idx]
	at := position(es, &o)
	for at < len(es) && es[at] != o && !sampleOrder(&o, &es[at]) {
		at++
	}
	if at == len(es) || es[at] != o {
		return -1, fmt.Errorf("partition: delete of absent observation %+v in region %d", o, idx)
	}
	d.entries[idx] = slices.Delete(es, at, at+1)
	d.part.count(idx, &o, -1)
	d.touch(idx)
	return idx, nil
}

// UpdateOp discriminates the two update kinds.
type UpdateOp uint8

const (
	// UpdateInsert adds the observation.
	UpdateInsert UpdateOp = iota
	// UpdateDelete removes a previously inserted observation.
	UpdateDelete
)

// Update is one element of a batched update stream.
type Update struct {
	Op  UpdateOp
	Obs Observation
}

// Apply applies a batch of updates in order. On the first failing delete it
// stops and returns the error; the updates before it remain applied.
func (d *DeltaPartitioning) Apply(batch []Update) error {
	for i, u := range batch {
		switch u.Op {
		case UpdateInsert:
			d.Insert(u.Obs)
		case UpdateDelete:
			if _, err := d.Delete(u.Obs); err != nil {
				return fmt.Errorf("partition: apply[%d]: %w", i, err)
			}
		default:
			return fmt.Errorf("partition: apply[%d]: unknown op %d", i, u.Op)
		}
	}
	return nil
}

func (d *DeltaPartitioning) touch(idx int) {
	d.stale[idx] = struct{}{}
	d.dirty[idx] = struct{}{}
}

// Dirty returns the sorted indices of regions updated since the last
// ClearDirty. The delta-audit engine reads it to derive its invalidation set;
// it is cleared explicitly (not by Snapshot) so a canceled audit can retry
// against the same dirty set.
func (d *DeltaPartitioning) Dirty() []int {
	out := make([]int, 0, len(d.dirty))
	for idx := range d.dirty {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// ClearDirty forgets the dirty set, typically after a successful delta audit.
func (d *DeltaPartitioning) ClearDirty() {
	for idx := range d.dirty {
		delete(d.dirty, idx)
	}
}

// Snapshot refreshes every stale region's income sample and returns the
// partitioning. The returned value is owned by the DeltaPartitioning and is
// valid until the next update; the snapshot is bit-identical to ByGrid over
// the current observation multiset, regardless of the update history that
// led here.
func (d *DeltaPartitioning) Snapshot() *Partitioning {
	if len(d.stale) > 0 {
		refresh := make([]int, 0, len(d.stale))
		for idx := range d.stale {
			refresh = append(refresh, idx)
			delete(d.stale, idx)
		}
		sort.Ints(refresh)
		for _, idx := range refresh {
			d.refreshRegion(idx)
		}
	}
	return &d.part
}

// sampleOrder orders a region's multiset as its sample is stored: by income,
// negative outcome first. Kept in that order, the multiset hands the sampler
// presorted runs, and a delete finds its record by binary search.
func sampleOrder(a, b *Observation) bool {
	if a.Income != b.Income { //lint:floateq-ok deterministic-tie-break
		return a.Income < b.Income
	}
	return !a.Positive && b.Positive
}

// position returns the first index of es whose record does not sort before o.
func position(es []Observation, o *Observation) int {
	return sort.Search(len(es), func(k int) bool { return !sampleOrder(&es[k], o) })
}

// refreshRegion re-selects one region's income sample from its multiset.
func (d *DeltaPartitioning) refreshRegion(idx int) {
	r := &d.part.Regions[idx]
	es := d.entries[idx]
	if len(es) == 0 {
		r.sample = nil
		return
	}
	s := newSampler(d.seed, r.N, r.Positives, d.capN)
	for k := range es {
		s.offer(&es[k])
	}
	r.sample = s.finish()
}
