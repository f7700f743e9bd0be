package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSampleSort sorts a copy of xs with the income sort and with
// slices.Sort and requires the two to agree under ==, and the income sort's
// output to be a permutation of xs's bits (so -0 and +0 keep their signs).
func checkSampleSort(t *testing.T, ks *sortKeys, xs []float64) {
	t.Helper()
	got := slices.Clone(xs)
	ks.sort(got)
	want := slices.Clone(xs)
	slices.Sort(want)
	for i := range want {
		if got[i] != want[i] { //lint:floateq-ok exact differential check
			t.Fatalf("n=%d: position %d holds %v, slices.Sort has %v", len(xs), i, got[i], want[i])
		}
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(bits(got), bits(xs)) {
		t.Fatalf("n=%d: the sorted sample is not a permutation of the input's bits", len(xs))
	}
}

// sortInputs are the shapes the income sort must handle, each at length n.
func sortInputs(rng *rand.Rand, n int) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	incomes := gen(func(int) float64 { return math.Round(rng.ExpFloat64()*60) * 1000 })
	sorted := slices.Clone(incomes)
	slices.Sort(sorted)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	return map[string][]float64{
		"incomes":    incomes,
		"presorted":  sorted,
		"reversed":   reversed,
		"duplicates": gen(func(int) float64 { return float64(rng.Intn(4)) * 25.5 }),
		"signed_zeros": gen(func(int) float64 {
			return [...]float64{math.Copysign(0, -1), 0, -1, 1}[rng.Intn(4)]
		}),
		"negative_and_subnormal": gen(func(int) float64 {
			v := rng.NormFloat64() * 5e4
			if rng.Intn(3) == 0 {
				v = float64(rng.Intn(9)-4) * math.SmallestNonzeroFloat64
			}
			return v
		}),
		"huge": gen(func(int) float64 {
			return [...]float64{math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 1e300, -1e-300}[rng.Intn(6)]
		}),
		"raw_bits": gen(func(int) float64 {
			for {
				if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) {
					return x
				}
			}
		}),
	}
}

// TestSampleSortMatchesSlicesSort pins the radix sort to slices.Sort on
// every input shape, at lengths around the slices.Sort cutoff, at the
// default cap and past it, reusing one key buffer throughout as an
// aggregation pass does.
func TestSampleSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ks sortKeys
	lengths := []int{0, 1, 2, radixMinLen - 1, radixMinLen, radixMinLen + 1, 137,
		DefaultIncomeSampleCap - 1, DefaultIncomeSampleCap, DefaultIncomeSampleCap + 1, 2000}
	for _, n := range lengths {
		for name, xs := range sortInputs(rng, n) {
			t.Run(name, func(t *testing.T) { checkSampleSort(t, &ks, xs) })
		}
	}
}

// TestSampleSortSignedZeroOrder checks the one order slices.Sort leaves
// open: every -0 lands before every +0.
func TestSampleSortSignedZeroOrder(t *testing.T) {
	xs := make([]float64, 2*radixMinLen+1)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = math.Copysign(0, -1)
		}
	}
	xs[0] = 1 // out of order, so the radix pass runs
	var ks sortKeys
	ks.sort(xs)
	for i, x := range xs[:len(xs)-1] {
		if math.Signbit(x) != (i < radixMinLen) {
			t.Fatalf("position %d holds %v; want %d times -0, then +0", i, x, radixMinLen)
		}
	}
}

// FuzzSampleSort differentially fuzzes the income sort against slices.Sort
// on arbitrary bit patterns (NaN, which no placeable income is, dropped).
func FuzzSampleSort(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(3, 1, 2))
	f.Add(seed(math.Copysign(0, -1), 0, -5, math.SmallestNonzeroFloat64, math.Inf(1)))
	f.Add(make([]byte, 8*radixMinLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		var xs []float64
		for ; len(b) >= 8; b = b[8:] {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(b)); !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		// Repeat short inputs past the cutoff, so the radix path runs too.
		for len(xs) > 0 && len(xs) < radixMinLen {
			xs = append(xs, xs...)
		}
		var ks sortKeys
		checkSampleSort(t, &ks, xs)
	})
}

// BenchmarkSampleSort times the radix sort against slices.Sort on normal
// incomes at lengths around radixMinLen and up to the default cap. It
// cycles through many inputs, so neither sort's branches can learn one.
func BenchmarkSampleSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{32, 48, 64, 150, DefaultIncomeSampleCap} {
		inputs := make([][]float64, 1024)
		for j := range inputs {
			inputs[j] = make([]float64, n)
			for i := range inputs[j] {
				inputs[j][i] = 60000 + 12000*rng.NormFloat64()
			}
		}
		buf := make([]float64, n)
		var ks sortKeys
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, inputs[i%len(inputs)])
				ks.radix(buf)
			}
		})
		b.Run(fmt.Sprintf("pdq/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, inputs[i%len(inputs)])
				slices.Sort(buf)
			}
		})
	}
}

// TestSortRecordsSampleOrder pins the staged-record sort a delta batch's
// fold runs: on every income shape sortInputs makes, at lengths on both
// sides of radixMinLen, with both outcomes, the output must be in
// sampleOrder (-0 and +0 one income, negatives first among equal incomes)
// and a permutation of the input records.
func TestSortRecordsSampleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ks sortKeys
	for _, n := range []int{0, 1, 2, 7, radixMinLen - 1, radixMinLen, 300, 1000} {
		for name, xs := range sortInputs(rng, n) {
			os := make([]Observation, n)
			for i, x := range xs {
				os[i] = Observation{Income: x, Positive: rng.Intn(2) == 0, Protected: rng.Intn(2) == 0}
				os[i].Loc.X = float64(i) // tells equal-income records apart
			}
			got := slices.Clone(os)
			ks.sortRecords(got)
			for i := 1; i < n; i++ {
				if sampleOrder(&got[i], &got[i-1]) {
					t.Fatalf("%s n=%d: record %d %+v sorts before its predecessor %+v", name, n, i, got[i], got[i-1])
				}
			}
			byX := func(a, b Observation) int { return int(a.Loc.X - b.Loc.X) }
			slices.SortFunc(got, byX)
			for i := range got {
				if got[i] != os[i] {
					t.Fatalf("%s n=%d: sorted records are not a permutation of the input", name, n)
				}
			}
		}
	}
}
