package partition

import (
	"fmt"
	"math"
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
//
// Every update goes through one batch fold (Apply): a delete marks its
// record in the region's sorted multiset or cancels an insert staged earlier
// in the batch, an insert is staged with its region, and at the end of the
// batch each touched region sorts its staged inserts once and merges them
// with its surviving records in one pass. A batch therefore costs each
// touched region one merge, not one memmove per update.
type DeltaPartitioning struct {
	part    Partitioning
	cells   geo.Locator
	entries [][]Observation // each region's observation multiset, in sampleOrder
	keys    sortKeys        // the refreshes' sort buffer

	pending []pendingRegion // the regions the open batch touched, in touch order
	slot    []int32         // region -> 1 + its index in pending, 0 when untouched
	spare   []Observation   // the merge's output buffer, swapped with what it replaces

	seed  uint64
	capN  int
	flags []regionFlags // per region: listed in stale, listed in dirty
	stale []int         // regions whose sample needs a refresh, unordered
	dirty []int         // regions updated since the last ClearDirty, unordered
}

// regionFlags marks a region's membership in the stale and dirty lists, so
// each list holds a region at most once and clears in O(its length).
type regionFlags uint8

const (
	flagStale regionFlags = 1 << iota
	flagDirty
)

// pendingRegion is one region's share of the open batch: the inserts it
// staged, unsorted, and how many of its records the batch's deletes marked.
type pendingRegion struct {
	idx    int
	adds   []Observation
	marked int
}

// NewDeltaByGrid builds a delta-capable partitioning over grid cells.
// Observations outside the grid are dropped, as in ByGrid.
func NewDeltaByGrid(grid geo.Grid, obs []Observation, opts Options) *DeltaPartitioning {
	d := &DeltaPartitioning{
		part:  Partitioning{Grid: grid, Regions: make([]Region, grid.NumCells())},
		cells: grid.Locator(),
		seed:  opts.Seed,
		capN:  opts.cap(),
	}
	d.entries = make([][]Observation, len(d.part.Regions))
	d.slot = make([]int32, len(d.part.Regions))
	d.flags = make([]regionFlags, len(d.part.Regions))
	for i := range d.part.Regions {
		d.part.Regions[i].Index = i
		d.part.Regions[i].Bounds = grid.CellBounds(i)
	}
	// Size each region's staging buffer to its records first: the fold
	// adopts it as the region's multiset, with no growth and no slack.
	counts := make([]int, len(d.entries))
	for k := range obs {
		if obs[k].placeable() {
			if idx := d.locate(obs[k].Loc); idx >= 0 {
				counts[idx]++
			}
		}
	}
	for idx, n := range counts {
		if n > 0 {
			d.pendingOf(idx).adds = make([]Observation, 0, n)
		}
	}
	for _, o := range obs {
		d.stage(o)
	}
	d.fold()
	return d
}

// locate maps a location to its grid cell, or -1 outside the grid.
func (d *DeltaPartitioning) locate(p geo.Point) int {
	idx, ok := d.cells.CellIndex(p)
	if !ok {
		return -1
	}
	return idx
}

// Insert adds one observation, returning the region it landed in, or -1 when
// it falls outside the partitioned space (or carries a non-finite income)
// and was dropped.
//
//lint:deadexport-ok the delta tests drive it as Apply's one-update-at-a-time reference
func (d *DeltaPartitioning) Insert(o Observation) int {
	idx := d.stage(o)
	d.fold()
	return idx
}

// Delete removes one observation previously inserted (exact match on
// location, outcome, group, and income). It returns the region the
// observation was removed from; an observation outside the partitioned space
// returns -1 with no error, and a missing observation returns an error with
// the state unchanged.
//
//lint:deadexport-ok the delta tests drive it as Apply's one-update-at-a-time reference
func (d *DeltaPartitioning) Delete(o Observation) (int, error) {
	idx, err := d.mark(o)
	d.fold()
	return idx, err
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
// stops and returns the error; the updates before it remain applied. The
// result equals applying the updates one at a time: a delete may remove a
// record inserted earlier in the same batch.
func (d *DeltaPartitioning) Apply(batch []Update) error {
	defer d.fold()
	for i, u := range batch {
		switch u.Op {
		case UpdateInsert:
			d.stage(u.Obs)
		case UpdateDelete:
			if _, err := d.mark(u.Obs); err != nil {
				return fmt.Errorf("partition: apply[%d]: %w", i, err)
			}
		default:
			return fmt.Errorf("partition: apply[%d]: unknown op %d", i, u.Op)
		}
	}
	return nil
}

// stage counts an insert into its region and holds it for the fold. It
// returns the region, or -1 for a dropped observation.
func (d *DeltaPartitioning) stage(o Observation) int {
	if !o.placeable() {
		return -1
	}
	idx := d.locate(o.Loc)
	if idx < 0 {
		return -1
	}
	p := d.pendingOf(idx)
	p.adds = append(p.adds, o)
	d.part.count(idx, &o, 1)
	return idx
}

// mark takes a delete out of its region's counts: it marks an unmarked
// record equal to o in the region's multiset, or failing that cancels an
// equal insert staged earlier in the batch. Either leaves the multiset the
// sequential delete would. A missing observation is an error and changes
// nothing.
//
// A marked record's X coordinate is set to NaN. No located record has one,
// and NaN makes the record unequal to every observation, so a later delete
// passes over it; sampleOrder reads only income and outcome, so the
// multiset stays sorted until the fold drops the marked records.
func (d *DeltaPartitioning) mark(o Observation) (int, error) {
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
	switch {
	case at < len(es) && es[at] == o:
		es[at].Loc.X = math.NaN()
		d.pendingOf(idx).marked++
	case !d.cancelStaged(idx, &o):
		return -1, fmt.Errorf("partition: delete of absent observation %+v in region %d", o, idx)
	}
	d.part.count(idx, &o, -1)
	return idx, nil
}

// cancelStaged removes one staged insert equal to o from region idx's
// pending share, reporting whether there was one.
func (d *DeltaPartitioning) cancelStaged(idx int, o *Observation) bool {
	s := d.slot[idx]
	if s == 0 {
		return false
	}
	p := &d.pending[s-1]
	for k := range p.adds {
		if p.adds[k] == *o {
			last := len(p.adds) - 1
			p.adds[k] = p.adds[last]
			p.adds = p.adds[:last]
			return true
		}
	}
	return false
}

// pendingOf returns region idx's share of the open batch, opening it on
// the region's first update. A reopened share reuses the staging buffer a
// previous batch left in that place.
func (d *DeltaPartitioning) pendingOf(idx int) *pendingRegion {
	if s := d.slot[idx]; s != 0 {
		return &d.pending[s-1]
	}
	n := len(d.pending)
	if n < cap(d.pending) {
		d.pending = d.pending[:n+1]
	} else {
		d.pending = append(d.pending, pendingRegion{})
	}
	p := &d.pending[n]
	p.idx, p.adds, p.marked = idx, p.adds[:0], 0
	d.slot[idx] = int32(n + 1)
	return p
}

// fold closes the batch: every touched region gets one sort of its staged
// inserts and one merge with its unmarked records, and is marked stale and
// dirty.
func (d *DeltaPartitioning) fold() {
	for k := range d.pending {
		p := &d.pending[k]
		d.slot[p.idx] = 0
		d.stale = d.list(d.stale, p.idx, flagStale)
		d.dirty = d.list(d.dirty, p.idx, flagDirty)
		d.merge(p)
	}
	d.pending = d.pending[:0]
}

// list appends region idx to the list its flag f tracks, unless already
// listed.
func (d *DeltaPartitioning) list(l []int, idx int, f regionFlags) []int {
	if d.flags[idx]&f != 0 {
		return l
	}
	d.flags[idx] |= f
	return append(l, idx)
}

// unlist empties the list flag f tracks, clearing its regions' flags.
func (d *DeltaPartitioning) unlist(l []int, f regionFlags) []int {
	for _, idx := range l {
		d.flags[idx] &^= f
	}
	return l[:0]
}

// merge folds one region's share into its multiset. An empty region adopts
// its sorted inserts as its multiset; otherwise the merge writes into the
// spare buffer, and the array it replaces becomes the next spare.
func (d *DeltaPartitioning) merge(p *pendingRegion) {
	es, adds := d.entries[p.idx], p.adds
	if len(adds) == 0 && p.marked == 0 {
		return
	}
	d.keys.sortRecords(adds)
	if len(es) == 0 {
		d.entries[p.idx], p.adds = adds, nil
		return
	}
	n := len(es) - p.marked + len(adds)
	out := d.spare[:0]
	if cap(out) < n {
		out = make([]Observation, 0, n)
	}
	i := 0
	for k := range adds {
		for ; i < len(es) && !sampleOrder(&adds[k], &es[i]); i++ {
			if !isMarked(&es[i]) {
				out = append(out, es[i])
			}
		}
		out = append(out, adds[k])
	}
	for ; i < len(es); i++ {
		if !isMarked(&es[i]) {
			out = append(out, es[i])
		}
	}
	d.entries[p.idx], d.spare = out, es[:0]
}

// isMarked reports whether a delete marked the record (see mark).
func isMarked(o *Observation) bool { return math.IsNaN(o.Loc.X) }

// Dirty returns the sorted indices of regions updated since the last
// ClearDirty. The delta-audit engine reads it to derive its invalidation set;
// it is cleared explicitly (not by Snapshot) so a canceled audit can retry
// against the same dirty set.
func (d *DeltaPartitioning) Dirty() []int {
	out := slices.Clone(d.dirty)
	slices.Sort(out)
	return out
}

// ClearDirty forgets the dirty set, typically after a successful delta audit.
func (d *DeltaPartitioning) ClearDirty() {
	d.dirty = d.unlist(d.dirty, flagDirty)
}

// Snapshot refreshes every stale region's income sample and returns the
// partitioning. The returned value is owned by the DeltaPartitioning and is
// valid until the next update; the snapshot is bit-identical to ByGrid over
// the current observation multiset, regardless of the update history that
// led here.
func (d *DeltaPartitioning) Snapshot() *Partitioning {
	for _, idx := range d.stale {
		d.refreshRegion(idx)
	}
	d.stale = d.unlist(d.stale, flagStale)
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
	r.sample = s.finish(&d.keys)
}
