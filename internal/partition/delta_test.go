package partition

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/stats"
)

// testGrid is a small grid shared by the delta tests: 4x2 cells over an
// 8x4-degree box.
func testGrid() geo.Grid {
	return geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(8, 4)), 4, 2)
}

// randomObs draws an observation inside the test grid. Incomes are drawn from
// a small discrete set so equal incomes occur constantly.
func randomObs(rng *stats.RNG) Observation {
	return Observation{
		Loc:       geo.Pt(rng.Float64()*8, rng.Float64()*4),
		Positive:  rng.Bernoulli(0.5),
		Protected: rng.Bernoulli(0.4),
		Income:    20000 + 1000*float64(rng.Intn(12)),
	}
}

// requireEqualSnapshots fails unless the two partitionings are bit-identical
// in every field the audit reads: counts, totals, bounds, the income sample,
// its outcomes and positive view, and summaries.
func requireEqualSnapshots(t *testing.T, got, want *Partitioning) {
	t.Helper()
	if got.TotalN != want.TotalN || got.TotalPositives != want.TotalPositives {
		t.Fatalf("totals differ: got (%d,%d) want (%d,%d)",
			got.TotalN, got.TotalPositives, want.TotalN, want.TotalPositives)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("region count differs: got %d want %d", len(got.Regions), len(want.Regions))
	}
	for i := range got.Regions {
		g, w := &got.Regions[i], &want.Regions[i]
		if g.N != w.N || g.Positives != w.Positives || g.Protected != w.Protected || g.NonProtected != w.NonProtected {
			t.Fatalf("region %d counts differ: got %+v want %+v", i, *g, *w)
		}
		if g.Bounds != w.Bounds && !(g.Bounds.IsEmpty() && w.Bounds.IsEmpty()) {
			t.Fatalf("region %d bounds differ: got %v want %v", i, g.Bounds, w.Bounds)
		}
		if !reflect.DeepEqual(g.IncomeSample(), w.IncomeSample()) {
			t.Fatalf("region %d income sample differs:\n got %v\nwant %v", i, g.IncomeSample(), w.IncomeSample())
		}
		if !reflect.DeepEqual(g.OutcomeSample(), w.OutcomeSample()) {
			t.Fatalf("region %d outcome sample differs", i)
		}
		if !reflect.DeepEqual(g.PositiveIncomeSample(), w.PositiveIncomeSample()) {
			t.Fatalf("region %d positive income sample differs", i)
		}
		gs, ws := Summarize(g), Summarize(w)
		if !summariesEqual(gs, ws) {
			t.Fatalf("region %d summary differs:\n got %+v\nwant %+v", i, gs, ws)
		}
	}
}

// summariesEqual compares summaries bit-for-bit, treating NaN as equal to NaN.
func summariesEqual(a, b RegionSummary) bool {
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return a.N == b.N && a.Positives == b.Positives && a.Protected == b.Protected &&
		a.SampleN == b.SampleN &&
		feq(a.PositiveRate, b.PositiveRate) && feq(a.ProtectedShare, b.ProtectedShare) &&
		feq(a.IncomeMean, b.IncomeMean) && feq(a.IncomeVariance, b.IncomeVariance) &&
		feq(a.IncomeMin, b.IncomeMin) && feq(a.IncomeMax, b.IncomeMax)
}

// TestDeltaMatchesColdRebuild is the layer's core contract: after an
// arbitrary applied update stream, the maintained snapshot is bit-identical
// to ByGrid over the surviving observation multiset.
func TestDeltaMatchesColdRebuild(t *testing.T) {
	rng := stats.NewRNG(101)
	opts := Options{Seed: 9, IncomeSampleCap: 16} // small cap: bottom-k engages
	dp := NewDeltaByGrid(testGrid(), nil, opts)
	var live []Observation

	for step := 0; step < 400; step++ {
		if len(live) > 0 && rng.Bernoulli(0.4) {
			k := rng.Intn(len(live))
			if _, err := dp.Delete(live[k]); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			o := randomObs(rng)
			dp.Insert(o)
			live = append(live, o)
		}
		if step%67 == 0 || step == 399 {
			requireEqualSnapshots(t, dp.Snapshot(), ByGrid(testGrid(), live, opts))
		}
	}
}

// TestDeltaInsertionOrderIndependence: the same multiset inserted in any
// order yields the same snapshot.
func TestDeltaInsertionOrderIndependence(t *testing.T) {
	rng := stats.NewRNG(55)
	opts := Options{Seed: 3, IncomeSampleCap: 8}
	obs := make([]Observation, 120)
	for i := range obs {
		obs[i] = randomObs(rng)
	}
	base := NewDeltaByGrid(testGrid(), obs, opts)
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]Observation(nil), obs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		perm := NewDeltaByGrid(testGrid(), shuffled, opts)
		requireEqualSnapshots(t, perm.Snapshot(), base.Snapshot())
	}
}

// TestDeltaDeleteThenReinsert: removing an observation and putting it back
// restores the prior snapshot exactly.
func TestDeltaDeleteThenReinsert(t *testing.T) {
	rng := stats.NewRNG(7)
	opts := Options{Seed: 21, IncomeSampleCap: 8}
	obs := make([]Observation, 60)
	for i := range obs {
		obs[i] = randomObs(rng)
	}
	dp := NewDeltaByGrid(testGrid(), obs, opts)
	want := NewDeltaByGrid(testGrid(), obs, opts)
	for k := 0; k < len(obs); k += 7 {
		if _, err := dp.Delete(obs[k]); err != nil {
			t.Fatalf("delete: %v", err)
		}
		dp.Insert(obs[k])
	}
	requireEqualSnapshots(t, dp.Snapshot(), want.Snapshot())
}

// TestDeltaDeleteAbsent: deleting an observation that is not present errors
// and leaves the state untouched; out-of-grid deletes are silent no-ops.
func TestDeltaDeleteAbsent(t *testing.T) {
	opts := Options{Seed: 1, IncomeSampleCap: 8}
	o := Observation{Loc: geo.Pt(1, 1), Income: 30000, Positive: true}
	dp := NewDeltaByGrid(testGrid(), []Observation{o}, opts)
	want := NewDeltaByGrid(testGrid(), []Observation{o}, opts)

	missing := o
	missing.Income = 31000
	if _, err := dp.Delete(missing); err == nil {
		t.Fatal("delete of absent observation succeeded")
	}
	outside := o
	outside.Loc = geo.Pt(-5, -5)
	if idx, err := dp.Delete(outside); err != nil || idx != -1 {
		t.Fatalf("out-of-grid delete: got (%d, %v), want (-1, nil)", idx, err)
	}
	requireEqualSnapshots(t, dp.Snapshot(), want.Snapshot())
}

// TestDeltaApplyStream exercises the batched Apply entry point, including its
// error position reporting: a batch stops at its first absent delete, the
// error names that update's index and carries Delete's own text, and the
// updates before it, a delete of a record the batch itself inserted among
// them, are applied and dirty their regions while the ones after it are not.
func TestDeltaApplyStream(t *testing.T) {
	rng := stats.NewRNG(13)
	opts := Options{Seed: 2, IncomeSampleCap: 8}
	dp := NewDeltaByGrid(testGrid(), nil, opts)
	o1, o2 := randomObs(rng), randomObs(rng)
	if err := dp.Apply([]Update{
		{Op: UpdateInsert, Obs: o1},
		{Op: UpdateInsert, Obs: o2},
		{Op: UpdateDelete, Obs: o1},
	}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	requireEqualSnapshots(t, dp.Snapshot(), ByGrid(testGrid(), []Observation{o2}, opts))
	dp.ClearDirty()

	a := Observation{Loc: geo.Pt(0.5, 0.5), Income: 20000}
	b := Observation{Loc: geo.Pt(7.5, 3.5), Income: 21000}
	late := Observation{Loc: geo.Pt(3.5, 0.5), Income: 22000}
	absent := o2
	absent.Income++
	_, deleteErr := NewDeltaByGrid(testGrid(), []Observation{o2}, opts).Delete(absent)
	if deleteErr == nil {
		t.Fatal("delete of an absent observation succeeded")
	}
	err := dp.Apply([]Update{
		{Op: UpdateInsert, Obs: a},
		{Op: UpdateInsert, Obs: b},
		{Op: UpdateDelete, Obs: b},
		{Op: UpdateDelete, Obs: o2},
		{Op: UpdateDelete, Obs: absent},
		{Op: UpdateInsert, Obs: late},
	})
	if want := "partition: apply[4]: " + deleteErr.Error(); err == nil || err.Error() != want {
		t.Fatalf("apply error = %v, want %q", err, want)
	}
	requireEqualSnapshots(t, dp.Snapshot(), ByGrid(testGrid(), []Observation{a}, opts))
	var want []int
	for _, o := range []Observation{a, b, o2} {
		idx, _ := testGrid().CellIndex(o.Loc)
		if !slices.Contains(want, idx) {
			want = append(want, idx)
		}
	}
	slices.Sort(want)
	if got := dp.Dirty(); !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty after a failed batch = %v, want %v", got, want)
	}
}

// TestDeltaApplyMatchesSequential checks Apply's batch fold against the
// sequential semantics it must keep: every batch leaves the snapshot that
// applying its updates one at a time through Insert and Delete leaves, and
// that ByGrid over a plainly kept mirror of the surviving records gives,
// and dirties exactly the regions its placed updates name. The batches mix
// deletes of records inserted earlier in the same batch, exact duplicate
// records, records outside the grid and records with a non-finite income.
func TestDeltaApplyMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(404)
	grid := testGrid()
	opts := Options{Seed: 5, IncomeSampleCap: 8}
	batched := NewDeltaByGrid(grid, nil, opts)
	seq := NewDeltaByGrid(grid, nil, opts)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	var live []Observation
	sawInBatch, sawDup, sawDropped := false, false, false
	for round := 0; round < 80; round++ {
		var batch []Update
		staged := map[Observation]bool{}
		dirty := map[int]bool{}
		place := func(o Observation) {
			if idx, ok := grid.CellIndex(o.Loc); ok && o.placeable() {
				dirty[idx] = true
			}
		}
		for n := rng.Intn(30); n >= 0; n-- {
			switch u := rng.Float64(); {
			case u < 0.35 && len(live) > 0:
				k := rng.Intn(len(live))
				o := live[k]
				sawInBatch = sawInBatch || staged[o]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				batch = append(batch, Update{Op: UpdateDelete, Obs: o})
				place(o)
			case u < 0.5 && len(live) > 0:
				o := live[rng.Intn(len(live))]
				sawDup = true
				live = append(live, o)
				staged[o] = true
				batch = append(batch, Update{Op: UpdateInsert, Obs: o})
				place(o)
			case u < 0.6:
				o := randomObs(rng)
				if rng.Bernoulli(0.5) {
					o.Loc = geo.Pt(-1, 2)
				} else {
					o.Income = bad[rng.Intn(len(bad))]
				}
				sawDropped = true
				op := UpdateInsert
				if rng.Bernoulli(0.5) {
					op = UpdateDelete
				}
				batch = append(batch, Update{Op: op, Obs: o})
			default:
				o := randomObs(rng)
				live = append(live, o)
				staged[o] = true
				batch = append(batch, Update{Op: UpdateInsert, Obs: o})
				place(o)
			}
		}
		if err := batched.Apply(batch); err != nil {
			t.Fatalf("round %d: apply: %v", round, err)
		}
		for i, u := range batch {
			if u.Op == UpdateInsert {
				seq.Insert(u.Obs)
			} else if _, err := seq.Delete(u.Obs); err != nil {
				t.Fatalf("round %d: sequential update %d: %v", round, i, err)
			}
		}
		var want []int
		for idx := range dirty {
			want = append(want, idx)
		}
		slices.Sort(want)
		if got := batched.Dirty(); !slices.Equal(got, want) {
			t.Fatalf("round %d: dirty = %v, want %v", round, got, want)
		}
		batched.ClearDirty()
		requireEqualSnapshots(t, batched.Snapshot(), seq.Snapshot())
		requireEqualSnapshots(t, batched.Snapshot(), ByGrid(grid, live, opts))
	}
	if !sawInBatch || !sawDup || !sawDropped {
		t.Fatalf("stream exercised in-batch deletes=%v duplicates=%v dropped records=%v; want all", sawInBatch, sawDup, sawDropped)
	}
}

// TestDeltaDirtyTracking: updates accumulate dirty regions across snapshots
// until ClearDirty, so a canceled delta audit can retry against the same set.
func TestDeltaDirtyTracking(t *testing.T) {
	opts := Options{Seed: 4, IncomeSampleCap: 8}
	dp := NewDeltaByGrid(testGrid(), nil, opts)
	a := Observation{Loc: geo.Pt(0.5, 0.5), Income: 20000}
	b := Observation{Loc: geo.Pt(7.5, 3.5), Income: 21000}
	ia, ib := dp.Insert(a), dp.Insert(b)
	if ia == ib || ia < 0 || ib < 0 {
		t.Fatalf("test observations landed in regions %d, %d; want two distinct regions", ia, ib)
	}
	want := []int{ia, ib}
	if want[0] > want[1] {
		want[0], want[1] = want[1], want[0]
	}
	if got := dp.Dirty(); !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
	dp.Snapshot() // refreshes, must not clear dirty
	if got := dp.Dirty(); !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty after snapshot = %v, want %v", got, want)
	}
	dp.ClearDirty()
	if got := dp.Dirty(); len(got) != 0 {
		t.Fatalf("dirty after clear = %v, want empty", got)
	}
}

// TestDeltaDropsNonFinite: non-finite incomes cannot be sorted into a sample
// and are dropped symmetrically by Insert and Delete.
func TestDeltaDropsNonFinite(t *testing.T) {
	opts := Options{Seed: 1, IncomeSampleCap: 8}
	dp := NewDeltaByGrid(testGrid(), nil, opts)
	bad := Observation{Loc: geo.Pt(1, 1), Income: math.NaN()}
	if idx := dp.Insert(bad); idx != -1 {
		t.Fatalf("insert of NaN income returned %d, want -1", idx)
	}
	if idx, err := dp.Delete(bad); idx != -1 || err != nil {
		t.Fatalf("delete of NaN income returned (%d, %v), want (-1, nil)", idx, err)
	}
	if n := dp.Snapshot().TotalN; n != 0 {
		t.Fatalf("TotalN = %d after dropped insert, want 0", n)
	}
}

// TestBatchAndDeltaDropNonFinite: the batch partitioner and the delta
// layer share one admission rule, so on records with NaN and ±Inf incomes
// ByGrid and the delta snapshot are bit-identical, drop exactly the
// non-finite records, and keep no non-finite income.
func TestBatchAndDeltaDropNonFinite(t *testing.T) {
	rng := stats.NewRNG(17)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	obs := make([]Observation, 300)
	nonFinite := 0
	for i := range obs {
		obs[i] = randomObs(rng)
		if i%7 == 0 {
			obs[i].Income = bad[(i/7)%len(bad)]
			nonFinite++
		}
	}
	opts := Options{Seed: 3, IncomeSampleCap: 16}
	batch := ByGrid(testGrid(), obs, opts)
	if batch.TotalN != len(obs)-nonFinite {
		t.Fatalf("batch TotalN = %d, want %d", batch.TotalN, len(obs)-nonFinite)
	}
	requireEqualSnapshots(t, NewDeltaByGrid(testGrid(), obs, opts).Snapshot(), batch)
	for i := range batch.Regions {
		for _, v := range batch.Regions[i].IncomeSample() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("region %d kept income %v", i, v)
			}
		}
	}
}

// TestSummaryIndexUpdateRegion: after mutating regions, repairing the index
// with UpdateRegion is bit-identical to rebuilding it from scratch —
// summaries, every dimension order, and the envelope stats.
func TestSummaryIndexUpdateRegion(t *testing.T) {
	rng := stats.NewRNG(31)
	opts := Options{Seed: 11, IncomeSampleCap: 16}
	dp := NewDeltaByGrid(testGrid(), nil, opts)
	var live []Observation
	for i := 0; i < 200; i++ {
		o := randomObs(rng)
		dp.Insert(o)
		live = append(live, o)
	}
	snap := dp.Snapshot()
	regions := make([]*Region, len(snap.Regions))
	for i := range snap.Regions {
		regions[i] = &snap.Regions[i]
	}
	ix := NewSummaryIndex(regions)

	// Mutate a few regions through the delta layer, then repair.
	for step := 0; step < 40; step++ {
		if len(live) > 0 && rng.Bernoulli(0.5) {
			k := rng.Intn(len(live))
			if _, err := dp.Delete(live[k]); err != nil {
				t.Fatalf("delete: %v", err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			o := randomObs(rng)
			dp.Insert(o)
			live = append(live, o)
		}
	}
	dirty := dp.Dirty()
	snap = dp.Snapshot()
	for _, pos := range dirty {
		ix.UpdateRegion(pos, &snap.Regions[pos])
	}

	fresh := NewSummaryIndex(regions)
	if ix.Stats != fresh.Stats {
		t.Fatalf("stats differ after UpdateRegion: got %+v want %+v", ix.Stats, fresh.Stats)
	}
	for i := range fresh.Summaries {
		if !summariesEqual(ix.Summaries[i], fresh.Summaries[i]) {
			t.Fatalf("summary %d differs: got %+v want %+v", i, ix.Summaries[i], fresh.Summaries[i])
		}
	}
	for d := SummaryDim(0); d < numSummaryDims; d++ {
		gk, gp := ix.Dim(d)
		wk, wp := fresh.Dim(d)
		if !reflect.DeepEqual(gk, wk) || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("dim %d order differs after UpdateRegion:\n got keys=%v pos=%v\nwant keys=%v pos=%v",
				d, gk, gp, wk, wp)
		}
	}

	// Idempotence: re-applying the same updates must not move anything (a
	// canceled delta audit retries its refresh).
	for _, pos := range dirty {
		ix.UpdateRegion(pos, &snap.Regions[pos])
	}
	if ix.Stats != fresh.Stats {
		t.Fatalf("stats differ after repeated UpdateRegion: got %+v want %+v", ix.Stats, fresh.Stats)
	}
	for d := SummaryDim(0); d < numSummaryDims; d++ {
		gk, gp := ix.Dim(d)
		wk, wp := fresh.Dim(d)
		if !reflect.DeepEqual(gk, wk) || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("dim %d order differs after repeated UpdateRegion", d)
		}
	}
}
