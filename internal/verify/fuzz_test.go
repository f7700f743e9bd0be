package verify

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"lcsf/internal/geo"
	"lcsf/internal/partition"
	"lcsf/internal/stats"
)

// The differential fuzz targets. Each one decodes fuzzer-chosen bytes into a
// valid input, runs the optimized kernel and its naive reference from
// reference_test.go, and demands bit-identical results (floatEq). The checked
// in corpora under testdata/fuzz run as ordinary regression cases on every
// `go test`; `make fuzz-smoke` additionally gives each target a bounded
// mutation budget.

// maxFuzzSample bounds decoded sample sizes so the O(n^2) references stay
// fast enough for mutation-mode fuzzing.
const maxFuzzSample = 256

// absRem reduces a fuzzer-chosen int into [0, m) without the sign and
// overflow traps of v % m (Go's remainder is negative for negative v, and
// -MinInt overflows).
func absRem(v, m int) int {
	r := v % m
	if r < 0 {
		r += m
	}
	return r
}

func FuzzMannWhitneySorted(f *testing.F) {
	f.Add([]byte("AAABBBCCC"), []byte("ABCABC"))
	f.Add([]byte("aaaa"), []byte("zzzz"))
	f.Add([]byte("m"), []byte("m"))
	f.Add([]byte{}, []byte("xy"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		xs := sortedSampleFromBytes(a, maxFuzzSample)
		ys := sortedSampleFromBytes(b, maxFuzzSample)
		got := stats.MannWhitneyUSorted(xs, ys)
		want := refMannWhitney(xs, ys)
		if !floatEq(got.U, want.U) || !floatEq(got.Z, want.Z) || !floatEq(got.P, want.P) {
			t.Fatalf("MannWhitneyUSorted(%v, %v) = %+v, naive reference = %+v", xs, ys, got, want)
		}
	})
}

func FuzzKolmogorovSmirnovSorted(f *testing.F) {
	f.Add([]byte("AAABBBCCC"), []byte("ABCABC"))
	f.Add([]byte("aaaa"), []byte("zzzz"))
	f.Add([]byte("ABABAB"), []byte("BABA"))
	f.Add([]byte{}, []byte("xy"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		xs := sortedSampleFromBytes(a, maxFuzzSample)
		ys := sortedSampleFromBytes(b, maxFuzzSample)
		got := stats.KolmogorovSmirnovSorted(xs, ys)
		want := refKolmogorovSmirnov(xs, ys)
		if !floatEq(got.D, want.D) || !floatEq(got.P, want.P) {
			t.Fatalf("KolmogorovSmirnovSorted(%v, %v) = %+v, naive reference = %+v", xs, ys, got, want)
		}
	})
}

func FuzzWelchTFromMoments(f *testing.F) {
	f.Add([]byte("Quartiles"), []byte("spread!!"))
	f.Add([]byte("aaaa"), []byte("aaaa")) // zero variance, equal means
	f.Add([]byte("aaaa"), []byte("bbbb")) // zero variance, distinct means
	f.Add([]byte("a"), []byte("xyz"))     // undersized first sample
	f.Fuzz(func(t *testing.T, a, b []byte) {
		xs := sampleFromBytes(a, maxFuzzSample)
		ys := sampleFromBytes(b, maxFuzzSample)
		got := stats.WelchTFromMoments(
			len(xs), stats.Mean(xs), stats.SampleVariance(xs),
			len(ys), stats.Mean(ys), stats.SampleVariance(ys),
		)
		want := refWelch(xs, ys)
		if !floatEq(got.T, want.T) || !floatEq(got.DF, want.DF) || !floatEq(got.P, want.P) {
			t.Fatalf("WelchTFromMoments(%v, %v) = %+v, naive reference = %+v", xs, ys, got, want)
		}
	})
}

// FuzzPairNullCache drives one null store through lookups over a cluster of
// related keys, fills the store to its bound, then repeats the lookups
// alongside a shifted cluster, and checks every returned p-value against the
// uncached reference. First fills, stored hits, and past-bound fills into
// the caller's scratch must all be bit-identical to replaying the
// key-seeded stream from scratch.
func FuzzPairNullCache(f *testing.F) {
	f.Add(uint64(1), 33, 40, 25, 12, 1.5, 8)
	f.Add(uint64(99), 7, 3, 3, 6, 0.0, 0)
	f.Add(uint64(2), 50, 120, 80, 55, -2.25, 40)
	f.Fuzz(func(t *testing.T, seed uint64, worlds, n1, n2, pooled int, observed float64, shift int) {
		worlds = 1 + absRem(worlds, 64)
		n1 = 1 + absRem(n1, 200)
		n2 = 1 + absRem(n2, 200)
		pooled = absRem(pooled, n1+n2+1)
		shift = absRem(shift, 64)
		if math.IsNaN(observed) {
			// The store counts exceedances by binary search, the reference by
			// streaming >= comparison; NaN is unordered under both but lands
			// on opposite sides, and no audit statistic is NaN.
			observed = 0
		}
		s := stats.NewNullStore(seed, worlds)
		var scratch []float64
		check := func(round, k int) {
			kn1 := 1 + (n1+k)%200
			kn2 := 1 + (n2+7*k)%200
			kp := (pooled + k) % (kn1 + kn2 + 1)
			obs := observed + float64(k)*0.125
			got, _ := s.PValue(kn1, kn2, kp, obs, &scratch)
			want := stats.NullCacheReferenceP(seed, worlds, kn1, kn2, kp, obs)
			if got != want {
				t.Fatalf("round %d key (%d,%d,%d) obs %v: store p = %v, uncached reference = %v",
					round, kn1, kn2, kp, obs, got, want)
			}
		}
		for k := 0; k < 24; k++ {
			check(0, k)
		}
		// Fill the store to its bound with keys that draw nothing (n1 = 0):
		// the bound is reached when a fresh key is filled on a repeat lookup.
		for k := 1 << 20; ; k++ {
			s.PValue(0, k, 0, 0, &scratch)
			if _, filled := s.PValue(0, k, 0, 0, &scratch); filled {
				break
			}
			if k > 1<<20+1<<16 {
				t.Fatal("null store never reached its bound")
			}
		}
		for k := 0; k < 24; k++ {
			check(1, k)       // stored before the bound: a hit
			check(1, k+shift) // shifted: past the bound unless it overlaps
		}
	})
}

// FuzzFillPairNull differentially fuzzes the batched null-cache fill against
// the uncached oracle: the p-value derived from a FillPairNull buffer by
// binary search must be bit-identical to NullCacheReferenceP for every
// (seed, worlds, key, observed) — across both fill paths (the lazily-tabled
// log kernel for keys with n1+n2 within the table bound and the direct
// per-world fallback above it), both key orientations, and degenerate pooled
// counts (0 and n1+n2).
func FuzzFillPairNull(f *testing.F) {
	f.Add(uint64(7), 33, 40, 25, 12, 1.5)
	f.Add(uint64(0xF111ED), 64, 1, 1, 0, 0.0)
	f.Add(uint64(3), 16, 1500, 1400, 900, 2.0) // n1+n2 above the table bound
	f.Add(uint64(5), 48, 300, 300, 372, -1.0)
	f.Fuzz(func(t *testing.T, seed uint64, worlds, n1, n2, pooled int, observed float64) {
		worlds = 1 + absRem(worlds, 96)
		n1 = 1 + absRem(n1, 1600)
		n2 = 1 + absRem(n2, 1600)
		pooled = absRem(pooled, n1+n2+1)
		if math.IsNaN(observed) {
			observed = 0 // NaN is unordered; no audit statistic is NaN
		}
		buf := make([]float64, worlds)
		stats.FillPairNull(buf, seed, n1, n2, pooled)
		if !sort.Float64sAreSorted(buf) {
			t.Fatalf("FillPairNull(%d,%d,%d) buffer not sorted", n1, n2, pooled)
		}
		idx := sort.SearchFloat64s(buf, observed)
		got := float64(1+worlds-idx) / float64(worlds+1)
		want := stats.NullCacheReferenceP(seed, worlds, n1, n2, pooled, observed)
		if got != want {
			t.Fatalf("key (%d,%d,%d) worlds=%d obs %v: batched fill p = %v, uncached reference = %v",
				n1, n2, pooled, worlds, observed, got, want)
		}
		swapped := make([]float64, worlds)
		stats.FillPairNull(swapped, seed, n2, n1, pooled)
		if !reflect.DeepEqual(buf, swapped) {
			t.Fatalf("key (%d,%d,%d): swapped orientation filled a different sample", n1, n2, pooled)
		}
	})
}

// FuzzNormalRoundTrip checks NormalQuantile against its defining equation:
// for any p in (0, 1) the quantile must be finite and NormalCDF must carry it
// back to p within the approximation's documented accuracy.
func FuzzNormalRoundTrip(f *testing.F) {
	f.Add(0.025)
	f.Add(0.5)
	f.Add(0.999)
	f.Add(1e-12)
	f.Add(5e-324) // denormal tail: the Halley step must not blow up
	f.Fuzz(func(t *testing.T, p float64) {
		if !(p > 0 && p < 1) {
			t.Skip()
		}
		z := stats.NormalQuantile(p)
		if math.IsNaN(z) || math.IsInf(z, 0) {
			t.Fatalf("NormalQuantile(%v) = %v, want finite", p, z)
		}
		back := stats.NormalCDF(z)
		if math.Abs(back-p) > 1e-9 {
			t.Fatalf("NormalCDF(NormalQuantile(%v)) = %v, round-trip error %v > 1e-9", p, back, back-p)
		}
		if s := stats.NormalSF(z) + stats.NormalCDF(z); math.Abs(s-1) > 1e-12 {
			t.Fatalf("NormalSF(%v) + NormalCDF(%v) = %v, want 1", z, z, s)
		}
	})
}

// FuzzFDR decodes bytes into p-values on the grid k/255 — dense enough that
// ties and threshold collisions are routine — and checks BenjaminiHochberg
// against the textbook step-up definition.
func FuzzFDR(f *testing.F) {
	f.Add([]byte{1, 5, 5, 32, 128, 255}, 0.1)
	f.Add([]byte{0, 0, 255}, 0.05)
	f.Add([]byte{200, 220, 240}, 0.2)
	f.Add([]byte{}, 0.1)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if !(q > 0 && q < 1) {
			t.Skip()
		}
		if len(data) > maxFuzzSample {
			data = data[:maxFuzzSample]
		}
		pvalues := make([]float64, len(data))
		for i, b := range data {
			pvalues[i] = float64(b) / 255
		}
		got := stats.BenjaminiHochberg(pvalues, q)
		want := refBenjaminiHochberg(pvalues, q)
		if len(got) != len(want) {
			t.Fatalf("BenjaminiHochberg length %d, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("BenjaminiHochberg(%v, %v)[%d] = %v, reference = %v", pvalues, q, i, got[i], want[i])
			}
		}
	})
}

// FuzzDeltaPartition decodes fuzzer-chosen bytes into an arbitrary
// insert/delete stream over a small grid and demands that the incrementally
// maintained DeltaPartitioning — region aggregates, bounds, canonical income
// samples, and a SummaryIndex repaired region-by-region through UpdateRegion
// — is indistinguishable from rebuilding everything from scratch over the
// surviving observation multiset. Incomes are drawn from a 16-value grid so
// duplicate entries (the exact-match deletion edge) are routine.
func FuzzDeltaPartition(f *testing.F) {
	f.Add(uint64(1), 8, []byte("insert-delete-reinsert, repeat"))
	f.Add(uint64(42), 3, []byte{0x00, 0x10, 0x21, 0x81, 0x10, 0x02, 0x06, 0x10, 0x03})
	f.Add(uint64(7), 1, []byte("aAbBcCdDeEfFgGhHaAbBcCdDeEfFgGhH"))
	f.Add(uint64(99), 16, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, capN int, ops []byte) {
		capN = 1 + absRem(capN, 16)
		grid := geo.NewGrid(geo.NewBBox(geo.Pt(0, 0), geo.Pt(4, 2)), 4, 2)
		opts := partition.Options{Seed: seed, IncomeSampleCap: capN}
		dp := partition.NewDeltaByGrid(grid, nil, opts)

		snap := dp.Snapshot()
		ptrs := make([]*partition.Region, len(snap.Regions))
		for i := range snap.Regions {
			ptrs[i] = &snap.Regions[i]
		}
		ix := partition.NewSummaryIndex(ptrs)

		// live mirrors the surviving multiset; deletes pick a live entry, so
		// every delete targets an observation that is actually present.
		var live []partition.Observation
		for i := 0; i+2 < len(ops) && i < 3*192; i += 3 {
			b0, b1, b2 := ops[i], ops[i+1], ops[i+2]
			if b0&1 == 1 && len(live) > 0 {
				k := absRem(int(b1), len(live))
				if _, err := dp.Delete(live[k]); err != nil {
					t.Fatalf("delete of live observation %+v failed: %v", live[k], err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			cell := absRem(int(b0>>1), grid.NumCells()+1)
			loc := geo.Pt(-1, -1) // out of grid: the stream must ignore it
			if cell < grid.NumCells() {
				loc = geo.Pt(
					float64(cell%grid.Cols)+0.05+0.9*float64(b2>>2&0x3F)/64,
					float64(cell/grid.Cols)+0.5,
				)
			}
			o := partition.Observation{
				Loc:       loc,
				Positive:  b2&1 != 0,
				Protected: b2&2 != 0,
				Income:    20000 + 1000*float64(b1%16),
			}
			if dp.Insert(o) >= 0 {
				live = append(live, o)
			}
		}

		// Repair the summary index from the dirty set, then refresh the
		// snapshot (same backing array, so ptrs stay valid).
		dirty := dp.Dirty()
		snap = dp.Snapshot()
		for _, idx := range dirty {
			ix.UpdateRegion(idx, &snap.Regions[idx])
		}
		dp.ClearDirty()

		cold := partition.NewDeltaByGrid(grid, live, opts).Snapshot()
		if snap.TotalN != cold.TotalN || snap.TotalPositives != cold.TotalPositives {
			t.Fatalf("totals diverged: incremental %d/%d, cold rebuild %d/%d",
				snap.TotalN, snap.TotalPositives, cold.TotalN, cold.TotalPositives)
		}
		for i := range snap.Regions {
			a, b := &snap.Regions[i], &cold.Regions[i]
			if a.N != b.N || a.Positives != b.Positives || a.Protected != b.Protected ||
				a.NonProtected != b.NonProtected || a.Bounds != b.Bounds {
				t.Fatalf("region %d aggregates diverged:\n incremental %+v\n cold        %+v", i, a, b)
			}
			if !reflect.DeepEqual(a.IncomeSample(), b.IncomeSample()) ||
				!reflect.DeepEqual(a.OutcomeSample(), b.OutcomeSample()) ||
				!reflect.DeepEqual(a.SortedIncomeSample(), b.SortedIncomeSample()) {
				t.Fatalf("region %d samples diverged:\n incremental %v %v\n cold        %v %v",
					i, a.IncomeSample(), a.OutcomeSample(), b.IncomeSample(), b.OutcomeSample())
			}
		}

		fresh := partition.NewSummaryIndex(ptrs)
		for i := range fresh.Summaries {
			if !summaryBitsEqual(&ix.Summaries[i], &fresh.Summaries[i]) {
				t.Fatalf("summary %d diverged:\n incremental %+v\n fresh       %+v",
					i, ix.Summaries[i], fresh.Summaries[i])
			}
		}
		if ix.Stats != fresh.Stats {
			t.Fatalf("summary stats diverged: incremental %+v, fresh %+v", ix.Stats, fresh.Stats)
		}
		for d := partition.DimProtectedShare; d <= partition.DimIncomeMean; d++ {
			ik, ip := ix.Dim(d)
			fk, fp := fresh.Dim(d)
			if !reflect.DeepEqual(ik, fk) || !reflect.DeepEqual(ip, fp) {
				t.Fatalf("dim %d order diverged:\n incremental %v %v\n fresh       %v %v", d, ik, ip, fk, fp)
			}
		}
	})
}

// summaryBitsEqual compares two summaries field-for-field with NaN-stable
// float comparison (empty regions carry NaN income moments by contract).
func summaryBitsEqual(a, b *partition.RegionSummary) bool {
	return a.N == b.N && a.Positives == b.Positives && a.Protected == b.Protected &&
		a.SampleN == b.SampleN &&
		math.Float64bits(a.PositiveRate) == math.Float64bits(b.PositiveRate) &&
		math.Float64bits(a.ProtectedShare) == math.Float64bits(b.ProtectedShare) &&
		math.Float64bits(a.IncomeMean) == math.Float64bits(b.IncomeMean) &&
		math.Float64bits(a.IncomeVariance) == math.Float64bits(b.IncomeVariance) &&
		math.Float64bits(a.IncomeMin) == math.Float64bits(b.IncomeMin) &&
		math.Float64bits(a.IncomeMax) == math.Float64bits(b.IncomeMax)
}
