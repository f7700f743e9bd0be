package stats

import "testing"

// benchRankedSet builds many distinct ranked samples on one grid so kernel
// benchmarks cycle through varying inputs — a fixed input pair lets the
// branch predictor memorize the comparison stream and understates cost ~3x.
func benchRankedSet(b *testing.B, samples, n int) (RankGrid, []*RankedSample) {
	b.Helper()
	rng := NewRNG(0xBE7C4)
	g, ok := NewRankGrid(-5, 5, RankGridBuckets)
	if !ok {
		b.Fatal("grid")
	}
	rs := make([]RankedSample, samples)
	ptr := make([]*RankedSample, samples)
	for s := range rs {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sortFloats(xs)
		FillRankedSample(g, xs, &rs[s])
		ptr[s] = &rs[s]
	}
	return g, ptr
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func BenchmarkCrossCount(b *testing.B) {
	g, ptr := benchRankedSet(b, 64, 300)
	pres := make([][]int32, len(ptr))
	for s, a := range ptr {
		pres[s] = FillPrefixTable(g, a, nil)
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		a := ptr[i%64]
		c := ptr[(i*7+3)%64]
		twoU, ties := CrossCount(pres[i%64], a, c)
		sink += twoU + ties
	}
	if sink == -1 {
		b.Fatal("sink")
	}
}

// BenchmarkFillPrefixTable is the per-probe-row cost the audit pays before
// a row's first fine bracket or exact kernel.
func BenchmarkFillPrefixTable(b *testing.B) {
	g, ptr := benchRankedSet(b, 64, 300)
	pre := FillPrefixTable(g, ptr[0], nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre = FillPrefixTable(g, ptr[i%64], pre)
	}
	if pre[len(pre)-1] != 300 {
		b.Fatal("table")
	}
}
