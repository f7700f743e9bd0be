package verify

import (
	"math"
	"reflect"
	"slices"
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

// FuzzMannWhitneyBucketed pins the audit's Mann–Whitney similarity path on
// tie-heavy quarter-integer samples sharing one rank grid, whose bucket
// count and span are fuzzed too (a narrow span clamps values into the edge
// buckets). The exact bucketed kernel — CrossCount finished by
// MannWhitneyFromCross — must equal MannWhitneyUSorted bit for bit, and the
// |z| intervals MannWhitneyAbsZRange certifies from the coarse and the fine
// bracket must contain the exact |Z|. Run from the second sample's prefix
// table, as delta rescoring runs a pair whose probe is its second region,
// the kernels must mirror: CrossCount gives 2·n1·n2 − 2U and the same tie
// term, both brackets give [n1·n2 − hi, n1·n2 − lo], and the mirrored
// integers finish to the same result bit for bit.
func FuzzMannWhitneyBucketed(f *testing.F) {
	f.Add([]byte("AAABBBCCC"), []byte("ABCABC"), uint16(2048), false)
	f.Add([]byte("aaaa"), []byte("zzzz"), uint16(64), false)
	f.Add([]byte("mmmmnnnn"), []byte("mmnn"), uint16(7), true)
	f.Add([]byte("m"), []byte("m"), uint16(1), false)
	f.Add([]byte{}, []byte("xy"), uint16(2048), true)
	f.Fuzz(func(t *testing.T, a, b []byte, buckets uint16, narrow bool) {
		xs := sortedSampleFromBytes(a, maxFuzzSample)
		ys := sortedSampleFromBytes(b, maxFuzzSample)
		lo, hi := -32.0, 31.75 // sampleFromBytes' full range
		if narrow {
			lo, hi = -4, 4
		}
		grid, ok := stats.NewRankGrid(lo, hi, 1+int(buckets)%stats.RankGridBuckets)
		if !ok {
			t.Fatalf("grid [%v, %v] refused", lo, hi)
		}
		var ra, rb stats.RankedSample
		stats.FillRankedSample(grid, xs, &ra)
		stats.FillRankedSample(grid, ys, &rb)

		preA := stats.FillPrefixTable(grid, &ra, nil)
		preB := stats.FillPrefixTable(grid, &rb, nil)

		want := stats.MannWhitneyUSorted(xs, ys)
		twoU, ties := stats.CrossCount(preA, &ra, &rb)
		got, exact := stats.MannWhitneyFromCross(twoU, ties, ra.N, rb.N)
		if !exact {
			t.Fatalf("sums of %d+%d elements reported past 2^53", ra.N, rb.N)
		}
		if !floatEq(got.U, want.U) || !floatEq(got.Z, want.Z) || !floatEq(got.P, want.P) {
			t.Fatalf("bucketed kernel(%v, %v) = %+v, MannWhitneyUSorted = %+v", xs, ys, got, want)
		}
		az := math.Abs(want.Z)
		coarse, fine := coarseBracket(&ra, &rb), fineBracket(preA, &ra, &rb)
		for _, bracket := range [][2]int{coarse, fine} {
			azMin, azMax, ok := stats.MannWhitneyAbsZRange(bracket[0], bracket[1], &ra, &rb)
			if ok && !(azMin <= az && az <= azMax) {
				t.Fatalf("|Z| = %v outside certified [%v, %v] from bracket %v (xs=%v ys=%v)", az, azMin, azMax, bracket, xs, ys)
			}
		}

		total := ra.N * rb.N
		mirTwoU, mirTies := stats.CrossCount(preB, &rb, &ra)
		mirTwoU = 2*int64(total) - mirTwoU
		if mirTwoU != twoU || mirTies != ties {
			t.Fatalf("mirrored CrossCount gives (2U, ties) = (%d, %d), want (%d, %d) (xs=%v ys=%v)", mirTwoU, mirTies, twoU, ties, xs, ys)
		}
		mirror := func(b [2]int) [2]int { return [2]int{total - b[1], total - b[0]} }
		if got := mirror(coarseBracket(&rb, &ra)); got != coarse {
			t.Fatalf("mirrored coarse bracket %v, want %v (xs=%v ys=%v)", got, coarse, xs, ys)
		}
		if got := mirror(fineBracket(preB, &rb, &ra)); got != fine {
			t.Fatalf("mirrored fine bracket %v, want %v (xs=%v ys=%v)", got, fine, xs, ys)
		}
		if mir, _ := stats.MannWhitneyFromCross(mirTwoU, mirTies, ra.N, rb.N); math.Float64bits(mir.P) != math.Float64bits(got.P) {
			t.Fatalf("mirrored P = %v, want %v bit for bit (xs=%v ys=%v)", mir.P, got.P, xs, ys)
		}
	})
}

func coarseBracket(a, b *stats.RankedSample) [2]int {
	lo, hi := stats.CrossBoundsCoarse(a, b)
	return [2]int{lo, hi}
}

func fineBracket(pre []int32, a, b *stats.RankedSample) [2]int {
	lo, hi := stats.CrossBounds(pre, a, b)
	return [2]int{lo, hi}
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

// FuzzPairNullCache drives null stores at a fuzzed cut through lookups over
// a cluster of related keys, fills one to its bound, then repeats the
// lookups alongside a shifted cluster, and checks every returned p-value
// against the uncached reference at that cut. First lookups (answered by a
// linear count over the worlds drawn until the cut is proved exceeded),
// second lookups (which complete and sort the sample), later repeats (binary
// search) and past-bound fills into the caller's scratch must all be
// bit-identical to replaying the key-seeded stream from scratch, and two
// stores doing the same lookups in opposite orders must answer alike. The
// cut is used as fuzzed — NaN, ±Inf and values outside (0, 1) included —
// and the seeds run it at 1, where no lookup stops.
func FuzzPairNullCache(f *testing.F) {
	f.Add(uint64(1), 33, 40, 25, 12, 1.5, 8, 1.0)
	f.Add(uint64(99), 7, 3, 3, 6, 0.0, 0, 0.05)
	f.Add(uint64(2), 50, 120, 80, 55, -2.25, 40, 0.01)
	f.Add(uint64(4), 20, 90, 90, 70, math.NaN(), 3, 0.2)
	f.Add(uint64(5), 20, 90, 90, 70, math.Inf(1), 3, 0.3)
	f.Add(uint64(6), 20, 90, 90, 70, math.Inf(-1), 3, 0.05)
	f.Fuzz(func(t *testing.T, seed uint64, worlds, n1, n2, pooled int, observed float64, shift int, cut float64) {
		worlds = 1 + absRem(worlds, 64)
		n1 = 1 + absRem(n1, 200)
		n2 = 1 + absRem(n2, 200)
		pooled = absRem(pooled, n1+n2+1)
		shift = absRem(shift, 64)
		// observed stays as fuzzed: NaN exceeds no null statistic under the
		// first lookup's count, the later lookups' binary search and the
		// reference's streaming >= alike, and ±Inf must agree too.
		var scratch stats.NullScratch
		lookup := func(s *stats.NullStore, round, k int) float64 {
			kn1 := 1 + (n1+k)%200
			kn2 := 1 + (n2+7*k)%200
			kp := (pooled + k) % (kn1 + kn2 + 1)
			obs := observed + float64(k)*0.125 + float64(round%2)*1.5
			got, _, _ := s.PValue(kn1, kn2, kp, obs, &scratch)
			want := refNullStoreP(seed, worlds, kn1, kn2, kp, obs, cut)
			if got != want {
				t.Fatalf("cut %v round %d key (%d,%d,%d) obs %v: store p = %v, uncached reference = %v",
					cut, round, kn1, kn2, kp, obs, got, want)
			}
			return got
		}
		s := stats.NewNullStore(seed, worlds, cut)
		r := stats.NewNullStore(seed, worlds, cut)
		var first [2][24]float64
		for k := 0; k < 24; k++ {
			first[0][k] = lookup(s, 0, k) // s: round-0 lookups first
			first[1][k] = lookup(r, 1, k) // r: round-1 lookups first
		}
		for k := 0; k < 24; k++ {
			// Each store's second lookup of a key completes its sample.
			if p := lookup(s, 1, k); p != first[1][k] {
				t.Fatalf("key %d: round-1 lookup p = %v second, %v first", k, p, first[1][k])
			}
			if p := lookup(r, 0, k); p != first[0][k] {
				t.Fatalf("key %d: round-0 lookup p = %v second, %v first", k, p, first[0][k])
			}
		}
		// Fill s to its bound with keys that draw nothing (n1 = 0): the
		// bound is reached when a fresh key is filled on a repeat lookup.
		for k := 1 << 20; ; k++ {
			s.PValue(0, k, 0, 0, &scratch)
			if _, _, filled := s.PValue(0, k, 0, 0, &scratch); filled {
				break
			}
			if k > 1<<20+1<<16 {
				t.Fatal("null store never reached its bound")
			}
		}
		for k := 0; k < 24; k++ {
			lookup(s, 2, k)       // stored before the bound: a later hit
			lookup(s, 2, k+shift) // shifted: past the bound unless it overlaps
		}
	})
}

// FuzzFillPairNull differentially fuzzes the store's resumable fill against
// the uncached oracle at a fuzzed cut: a fresh store's first lookup (drawn
// until the cut is proved exceeded, answered by a linear count), its second
// (completed, answered by binary search over the kept top statistics) and a
// repeat must be bit-identical to refNullStoreP for every (seed, worlds,
// key, observed), NaN and ±Inf observations included — across small and
// million-individual regions, pooled rates near 0, 0.5 and 1, both key
// orientations, and degenerate pooled counts (0 and n1+n2). The first two
// lookups together draw exactly the m worlds, and an exact answer at or
// below the cut is only ever given after all m. The completed entry is then
// asked at every one of the direct draws, the boundaries of its kept
// statistics: each answer must be the reference's, so the entry keeps the
// top min(stop, m) of the direct draws.
func FuzzFillPairNull(f *testing.F) {
	f.Add(uint64(7), 33, 40, 25, 12, 1.5, 1.0)
	f.Add(uint64(0xF111ED), 64, 1, 1, 0, 0.0, 0.05)
	f.Add(uint64(3), 16, 1500, 1400, 900, 2.0, 0.01) // n1+n2 above 2048
	f.Add(uint64(5), 48, 300, 300, 372, -1.0, 0.2)
	f.Add(uint64(8), 40, 2999, 4999, 40, 0.5, 0.3)             // pooled rate near 0
	f.Add(uint64(9), 40, 2999, 4999, 7990, 0.5, 1.0)           // pooled rate near 1
	f.Add(uint64(10), 8, 1<<20-1, 1<<20-1, 1<<20, 1.0, 0.05)   // rate 0.5 on a million per region
	f.Add(uint64(11), 24, 120, 80, 55, math.NaN(), 0.05)       // NaN observation
	f.Add(uint64(12), 24, 2999, 4999, 4000, math.Inf(1), 0.01) // +Inf observation
	f.Add(uint64(13), 24, 2999, 4999, 4000, math.Inf(-1), 0.2) // -Inf observation
	f.Fuzz(func(t *testing.T, seed uint64, worlds, n1, n2, pooled int, observed, cut float64) {
		n1 = 1 + absRem(n1, 1<<21)
		n2 = 1 + absRem(n2, 1<<21)
		pooled = absRem(pooled, n1+n2+1)
		worlds = 1 + absRem(worlds, 96)
		draws := refNullDraws(seed, worlds, n1, n2, pooled)
		want := refNullP(draws, observed, cut)
		var scratch stats.NullScratch
		for _, orient := range [][2]int{{n1, n2}, {n2, n1}} {
			s := stats.NewNullStore(seed, worlds, cut)
			total := 0
			for _, lookup := range []string{"first", "completing", "repeat"} {
				got, drawn, _ := s.PValue(orient[0], orient[1], pooled, observed, &scratch)
				if got != want {
					t.Fatalf("cut %v key (%d,%d,%d) worlds=%d obs %v: %s store lookup p = %v, uncached reference = %v",
						cut, orient[0], orient[1], pooled, worlds, observed, lookup, got, want)
				}
				if lookup == "first" && got <= cut && drawn != worlds {
					t.Fatalf("cut %v key (%d,%d,%d): exact first answer %v after %d of %d worlds", cut, orient[0], orient[1], pooled, got, drawn, worlds)
				}
				total += drawn
			}
			if total != worlds {
				t.Fatalf("cut %v key (%d,%d,%d): lookups drew %d worlds in total, want %d", cut, orient[0], orient[1], pooled, total, worlds)
			}
			for _, v := range draws {
				got, _, _ := s.PValue(orient[0], orient[1], pooled, v, &scratch)
				if want := refNullP(draws, v, cut); got != want {
					t.Fatalf("cut %v key (%d,%d,%d) worlds=%d: completed entry answers p = %v at the direct draw %v, reference %v",
						cut, orient[0], orient[1], pooled, worlds, got, v, want)
				}
			}
		}
	})
}

// FuzzBinomialSampler differentially fuzzes stats.BinomialSampler — the
// CDF-inversion sampler every null fill draws through — against refInvert
// over exactBinomial's freshly summed full-support CDF. Every draw must
// leave the generator in the same state as the reference's one Float64, and
// return the same int unless the uniform lies within 2^-45 of every
// reference CDF boundary between the two answers: the two CDFs are summed
// differently, and only a uniform that close to a boundary may fall on
// either side of it. Degenerate parameters (n <= 0, p <= 0, NaN p, p >= 1)
// must answer 0 or n without consuming the generator. n is bounded because
// the reference sums all n+1 terms in 128-bit arithmetic.
func FuzzBinomialSampler(f *testing.F) {
	eps := math.SmallestNonzeroFloat64
	f.Add(uint64(1), 1000, 0.3, 64)
	f.Add(uint64(2), 64, 0.6, 16)
	f.Add(uint64(3), 65, 0.47, 16)
	f.Add(uint64(4), 200, 0.01, 64)   // mean 2, skewed
	f.Add(uint64(5), 1000, 0.002, 64) // mean 2, skewed
	f.Add(uint64(6), 8000, 0.8, 64)   // LAR-like
	f.Add(uint64(7), 190, 0.85, 64)
	f.Add(uint64(8), 1<<17, 0.5, 16)     // the widest window fuzzed
	f.Add(uint64(9), 1<<17, 1e-6, 16)    // mean 0.13
	f.Add(uint64(10), 1<<17, 1-1e-6, 16) // mass piled at n
	f.Add(uint64(11), 500, 0.0, 4)
	f.Add(uint64(12), 500, 1.0, 4)
	f.Add(uint64(13), 500, math.NaN(), 4)
	f.Add(uint64(14), 1, 0.5, 32)
	f.Add(uint64(15), 500, eps, 2)
	f.Add(uint64(16), 500, -eps, 2)
	f.Add(uint64(17), 500, 1-0x1p-53, 2) // the largest p below 1
	f.Add(uint64(18), 0, 0.5, 2)
	f.Add(uint64(19), 3, 0.999, 64)
	f.Add(uint64(20), 5000, 0.03, 64) // mean 150, skewed right
	f.Fuzz(func(t *testing.T, seed uint64, n int, p float64, draws int) {
		n = absRem(n, 1<<17+1)
		draws = 1 + absRem(draws, 256)
		b := stats.NewBinomialSampler(n, p)
		got, want := stats.NewRNG(seed), stats.NewRNG(seed)
		if n <= 0 || !(p > 0) || p >= 1 {
			at := 0
			if n > 0 && p >= 1 {
				at = n
			}
			for i := 0; i < draws; i++ {
				if k := b.Draw(got); k != at || *got != *want {
					t.Fatalf("seed %d degenerate Binomial(%d, %v) draw %d = %d (generator moved: %v), want %d without a draw",
						seed, n, p, i, k, *got != *want, at)
				}
			}
			return
		}
		_, cdf := exactBinomial(n, p)
		for i := 0; i < draws; i++ {
			k := b.Draw(got)
			u := want.Float64()
			if *got != *want {
				t.Fatalf("seed %d Binomial(%d, %v) draw %d left the generator at a different state than one Float64", seed, n, p, i)
			}
			ref := refInvert(cdf, u)
			for c := min(k, ref); c < max(k, ref); c++ {
				if math.Abs(u-cdf[c]) > 0x1p-45 {
					t.Fatalf("seed %d Binomial(%d, %v) draw %d = %d, exact inversion %d: u = %v is %.3g from the CDF boundary at %d",
						seed, n, p, i, k, ref, u, math.Abs(u-cdf[c]), c)
				}
			}
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
		z := NormalQuantile(p)
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
// ties and threshold collisions are routine — and checks
// BenjaminiHochbergCut, given only the p <= q subset and the family size,
// against the textbook step-up definition's rejection mask.
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
		want := refBenjaminiHochberg(pvalues, q)
		var small []float64
		for _, p := range pvalues {
			if p <= q {
				small = append(small, p)
			}
		}
		pstar, ok := stats.BenjaminiHochbergCut(small, len(pvalues), q)
		for i, p := range pvalues {
			if cut := ok && p <= pstar; cut != want[i] {
				t.Fatalf("BenjaminiHochbergCut over the p <= %v subset of %v: p* = %v (ok %v) gives %v at %d, reference = %v",
					q, pvalues, pstar, ok, cut, i, want[i])
			}
		}
	})
}

// FuzzDeltaPartition decodes fuzzer-chosen bytes into an arbitrary
// insert/delete stream over a small grid, cut into batches that go through
// Apply's batch fold, and demands that the incrementally maintained
// DeltaPartitioning — region aggregates, bounds, income samples, and a
// SummaryIndex repaired region-by-region through UpdateRegion — is
// indistinguishable from ByGrid over the surviving observation multiset,
// taken in either row order, and from a fresh index. A delete may pick a
// record its own batch inserted, and incomes are drawn from a 16-value grid
// so duplicate entries (the exact-match deletion edge) are routine.
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

		// live mirrors the surviving multiset as of the last decoded
		// update, so every delete targets an observation that is present
		// when its turn in the batch comes. A delete whose third byte is odd
		// closes the batch; the rest of the stream is the last batch.
		var live []partition.Observation
		var batch []partition.Update
		flush := func() {
			if err := dp.Apply(batch); err != nil {
				t.Fatalf("apply of a batch of present-record deletes and inserts failed: %v", err)
			}
			batch = batch[:0]
		}
		for i := 0; i+2 < len(ops) && i < 3*192; i += 3 {
			b0, b1, b2 := ops[i], ops[i+1], ops[i+2]
			if b0&1 == 1 && len(live) > 0 {
				k := absRem(int(b1), len(live))
				batch = append(batch, partition.Update{Op: partition.UpdateDelete, Obs: live[k]})
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				if b2&1 == 1 {
					flush()
				}
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
			batch = append(batch, partition.Update{Op: partition.UpdateInsert, Obs: o})
			if cell < grid.NumCells() {
				live = append(live, o)
			}
		}
		flush()

		// Repair the summary index from the dirty set, then refresh the
		// snapshot (same backing array, so ptrs stay valid).
		dirty := dp.Dirty()
		snap = dp.Snapshot()
		for _, idx := range dirty {
			ix.UpdateRegion(idx, &snap.Regions[idx])
		}
		dp.ClearDirty()

		// The reference is the batch partitioner over the surviving
		// multiset, in the order it survived and reversed: the sample must
		// depend on neither the update history nor the row order.
		reversed := slices.Clone(live)
		slices.Reverse(reversed)
		for _, ref := range []struct {
			name string
			rows []partition.Observation
		}{{"ByGrid", live}, {"ByGrid over reversed rows", reversed}} {
			cold := partition.ByGrid(grid, ref.rows, opts)
			if snap.TotalN != cold.TotalN || snap.TotalPositives != cold.TotalPositives {
				t.Fatalf("totals diverged: incremental %d/%d, %s %d/%d",
					snap.TotalN, snap.TotalPositives, ref.name, cold.TotalN, cold.TotalPositives)
			}
			for i := range snap.Regions {
				a, b := &snap.Regions[i], &cold.Regions[i]
				if a.N != b.N || a.Positives != b.Positives || a.Protected != b.Protected ||
					a.NonProtected != b.NonProtected || a.Bounds != b.Bounds {
					t.Fatalf("region %d aggregates diverged:\n incremental %+v\n %s %+v", i, a, ref.name, b)
				}
				if !reflect.DeepEqual(a.IncomeSample(), b.IncomeSample()) ||
					!reflect.DeepEqual(a.OutcomeSample(), b.OutcomeSample()) ||
					!reflect.DeepEqual(a.PositiveIncomeSample(), b.PositiveIncomeSample()) {
					t.Fatalf("region %d samples diverged:\n incremental %v %v\n %s %v %v",
						i, a.IncomeSample(), a.OutcomeSample(), ref.name, b.IncomeSample(), b.OutcomeSample())
				}
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
