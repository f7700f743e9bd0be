package partition

import (
	"fmt"
	"sort"

	"lcsf/internal/geo"
)

// This file makes the partition layer delta-capable: DeltaPartitioning
// maintains region aggregates under individual insert/delete updates and can
// materialize, at any point, a *Partitioning that is bit-identical to the one
// a cold rebuild from the current observation multiset would produce.
//
// That equivalence is the foundation of the delta-audit engine's correctness
// contract (delta audit ≡ cold batch audit, byte-identical), and it forces
// one deliberate departure from the streaming aggregation in partition.go:
// the per-region income sample cannot be a reservoir. Algorithm R's admission
// decisions depend on arrival order and on a generator shared across regions,
// so a deletion cannot be unwound without replaying history. DeltaPartitioning
// instead keeps each region's full observation multiset in a canonical sorted
// order and derives the sample with hash-priority bottom-k selection: every
// entry gets a deterministic pseudo-random rank from (seed, region, canonical
// position), and the cap-many smallest ranks form the sample. The selection is
// a pure function of the multiset and the seed — insertion order, deletions,
// and re-insertions cannot leave a trace — which is exactly the property the
// delta-vs-batch oracle in internal/verify pins down.
//
// Cold-batch comparisons must therefore build their reference snapshot with
// NewDeltaByGrid/NewDeltaByAssign over the final observation multiset, not
// with ByGrid/ByAssign (whose reservoirs are a different — order-sensitive —
// sampling design for the static pipeline).

// deltaEntry is one retained observation in a region's canonical multiset.
type deltaEntry struct {
	income    float64
	positive  bool
	protected bool
	loc       geo.Point
}

// entryOf converts an observation; the location is retained so deletes can
// match exactly and assign-mode bounds can be recomputed.
func entryOf(o Observation) deltaEntry {
	return deltaEntry{income: o.Income, positive: o.Positive, protected: o.Protected, loc: o.Loc}
}

// entryLess is the canonical total order: income, then outcome, then group,
// then location. Ties (fully identical observations) are interchangeable, so
// any stable layout of duplicates yields the same aggregates and sample.
func entryLess(a, b deltaEntry) bool {
	if a.income != b.income { //lint:floateq-ok deterministic-tie-break
		return a.income < b.income
	}
	if a.positive != b.positive {
		return !a.positive
	}
	if a.protected != b.protected {
		return !a.protected
	}
	if a.loc.X != b.loc.X { //lint:floateq-ok deterministic-tie-break
		return a.loc.X < b.loc.X
	}
	return a.loc.Y < b.loc.Y
}

// entryEqual is exact-match equality for deletes.
func entryEqual(a, b deltaEntry) bool {
	return a == b
}

// sampleRank is the deterministic per-entry priority behind bottom-k
// selection: a splitmix64-style mix of the partition seed, the region, and
// the entry's canonical position. Recomputed from the current canonical state
// on every refresh, so it is a pure function of the multiset.
func sampleRank(seed uint64, region, pos int) uint64 {
	z := seed ^ 0xD3177A51 ^ uint64(region)*0x9E3779B97F4A7C15 ^ uint64(pos)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// DeltaPartitioning maintains a Partitioning under insert/delete updates.
// It is not safe for concurrent use; callers serialize updates and audits.
type DeltaPartitioning struct {
	part    Partitioning
	entries [][]deltaEntry // canonical sorted multiset per region

	seed   uint64
	capN   int
	grid   *geo.Grid           // grid mode: fixed cell bounds and membership
	assign func(geo.Point) int // assign mode: arbitrary membership
	stale  map[int]struct{}    // regions whose sample/bounds need a refresh
	dirty  map[int]struct{}    // regions updated since the last ClearDirty
}

// NewDeltaByGrid builds a delta-capable partitioning over grid cells.
// Observations outside the grid are dropped, as in ByGrid.
func NewDeltaByGrid(grid geo.Grid, obs []Observation, opts Options) *DeltaPartitioning {
	d := &DeltaPartitioning{
		part:  Partitioning{Grid: grid, Regions: make([]Region, grid.NumCells())},
		seed:  opts.Seed,
		capN:  opts.cap(),
		grid:  &grid,
		stale: make(map[int]struct{}),
		dirty: make(map[int]struct{}),
	}
	d.entries = make([][]deltaEntry, len(d.part.Regions))
	for i := range d.part.Regions {
		d.part.Regions[i].Index = i
		d.part.Regions[i].Bounds = grid.CellBounds(i)
	}
	for _, o := range obs {
		d.Insert(o)
	}
	return d
}

// NewDeltaByAssign builds a delta-capable partitioning over an arbitrary
// assignment, mirroring ByAssign: negative assignments drop the observation,
// out-of-range assignments panic, and region bounds are the extent of the
// observations currently present.
func NewDeltaByAssign(numCells int, assign func(geo.Point) int, obs []Observation, opts Options) *DeltaPartitioning {
	d := &DeltaPartitioning{
		part:   Partitioning{Regions: make([]Region, numCells)},
		seed:   opts.Seed,
		capN:   opts.cap(),
		assign: assign,
		stale:  make(map[int]struct{}),
		dirty:  make(map[int]struct{}),
	}
	d.entries = make([][]deltaEntry, numCells)
	for i := range d.part.Regions {
		d.part.Regions[i].Index = i
		d.part.Regions[i].Bounds = geo.EmptyBBox()
	}
	for _, o := range obs {
		d.Insert(o)
	}
	return d
}

// locate maps a location to its region, or -1 for out-of-scope.
func (d *DeltaPartitioning) locate(p geo.Point) int {
	if d.grid != nil {
		idx, ok := d.grid.CellIndex(p)
		if !ok {
			return -1
		}
		return idx
	}
	idx := d.assign(p)
	if idx < 0 {
		return -1
	}
	if idx >= len(d.part.Regions) {
		panic(fmt.Sprintf("partition: assign returned %d for %d cells", idx, len(d.part.Regions)))
	}
	return idx
}

// Insert adds one observation, returning the region it landed in, or -1 when
// it falls outside the partitioned space (or carries a non-finite income,
// which the canonical order cannot place) and was dropped.
func (d *DeltaPartitioning) Insert(o Observation) int {
	if !o.placeable() {
		return -1
	}
	idx := d.locate(o.Loc)
	if idx < 0 {
		return -1
	}
	e := entryOf(o)
	es := d.entries[idx]
	at := sort.Search(len(es), func(k int) bool { return !entryLess(es[k], e) })
	es = append(es, deltaEntry{})
	copy(es[at+1:], es[at:])
	es[at] = e
	d.entries[idx] = es

	r := &d.part.Regions[idx]
	r.N++
	d.part.TotalN++
	if o.Positive {
		r.Positives++
		d.part.TotalPositives++
	}
	if o.Protected {
		r.Protected++
	} else {
		r.NonProtected++
	}
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
	e := entryOf(o)
	es := d.entries[idx]
	at := sort.Search(len(es), func(k int) bool { return !entryLess(es[k], e) })
	if at >= len(es) || !entryEqual(es[at], e) {
		return -1, fmt.Errorf("partition: delete of absent observation %+v in region %d", o, idx)
	}
	d.entries[idx] = append(es[:at], es[at+1:]...)

	r := &d.part.Regions[idx]
	r.N--
	d.part.TotalN--
	if o.Positive {
		r.Positives--
		d.part.TotalPositives--
	}
	if o.Protected {
		r.Protected--
	} else {
		r.NonProtected--
	}
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

// Snapshot refreshes every stale region's derived state (income sample,
// sorted-sample cache, assign-mode bounds) and returns the partitioning. The
// returned value is owned by the DeltaPartitioning and is valid until the
// next update; the snapshot is bit-identical to the one a fresh
// NewDeltaByGrid/NewDeltaByAssign over the current observation multiset would
// produce, regardless of the update history that led here.
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

// refreshRegion rebuilds one region's sample and (in assign mode) bounds from
// its canonical multiset.
func (d *DeltaPartitioning) refreshRegion(idx int) {
	r := &d.part.Regions[idx]
	es := d.entries[idx]
	if d.assign != nil {
		b := geo.EmptyBBox()
		for _, e := range es {
			b = b.Extend(e.loc)
		}
		r.Bounds = b
	}
	if len(es) == 0 {
		r.sample = nil
		return
	}

	// Select the sample: every entry when the region fits under the cap,
	// otherwise the cap-many smallest hash priorities. sel holds canonical
	// positions in ascending order either way, so the sample's incomes come
	// out already sorted and the sorted-view cache is filled for free.
	var sel []int
	if len(es) <= d.capN {
		sel = make([]int, len(es))
		for i := range es {
			sel[i] = i
		}
	} else {
		type ranked struct {
			rank uint64
			pos  int
		}
		rs := make([]ranked, len(es))
		for i := range es {
			rs[i] = ranked{rank: sampleRank(d.seed, idx, i), pos: i}
		}
		sort.Slice(rs, func(a, b int) bool {
			if rs[a].rank != rs[b].rank {
				return rs[a].rank < rs[b].rank
			}
			return rs[a].pos < rs[b].pos
		})
		sel = make([]int, d.capN)
		for i := 0; i < d.capN; i++ {
			sel[i] = rs[i].pos
		}
		sort.Ints(sel)
	}

	incomes := make([]float64, len(sel))
	pos := make([]bool, len(sel))
	for i, p := range sel {
		incomes[i] = es[p].income
		pos[i] = es[p].positive
	}
	r.sample = &pairedSample{
		incomes:    incomes,
		pos:        pos,
		seen:       len(es),
		cap:        d.capN,
		sorted:     incomes,
		sortedSeen: len(es),
	}
}

// NumEntries returns the number of retained observations in one region —
// test and bench introspection.
func (d *DeltaPartitioning) NumEntries(idx int) int {
	return len(d.entries[idx])
}
