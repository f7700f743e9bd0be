package core

import (
	"slices"
	"sort"
	"testing"

	"lcsf/internal/stats"
)

// randomUnfairPairs builds n pairs with deliberately heavy ties in Tau and P
// so the comparator's fall-through arms (P, then I, then J) all carry weight
// — a sort that mishandled any tie level would produce a different
// permutation than the reference.
func randomUnfairPairs(rng *stats.RNG, n int) []UnfairPair {
	pairs := make([]UnfairPair, n)
	for i := range pairs {
		pairs[i] = UnfairPair{
			I:   int(rng.Uint64() % 500),
			J:   int(rng.Uint64() % 500),
			Tau: float64(rng.Uint64()%16) / 16,
			P:   float64(rng.Uint64()%8) / 64,
		}
	}
	return pairs
}

// TestSortUnfairPairsMatchesSequential pins sortUnfairPairs byte-identical
// to the sort.Slice reference over tie-heavy inputs, so the comparator's
// fall-through arms decide the permutation.
func TestSortUnfairPairsMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(0x50127)
	for _, n := range []int{0, 1, 100, 5000} {
		base := randomUnfairPairs(rng, n)
		want := append([]UnfairPair(nil), base...)
		sort.Slice(want, func(i, j int) bool { return lessUnfair(&want[i], &want[j]) })
		got := append([]UnfairPair(nil), base...)
		sortUnfairPairs(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: index %d: got %+v want %+v", n, i, got[i], want[i])
			}
		}
	}
}

// TestSpliceUnfairPairs checks the low set's merge against sorting the
// survivors and the additions together: runs are dropped and added before,
// between and after the kept pairs, ties are heavy, and any of the three
// inputs may be empty. The low set's p-values go through the same splice
// with lessFloat.
func TestSpliceUnfairPairs(t *testing.T) {
	rng := stats.NewRNG(0x5B11CE)
	sortRun := func(run []UnfairPair) {
		sort.Slice(run, func(i, j int) bool { return lessUnfair(&run[i], &run[j]) })
	}
	for trial := 0; trial < 200; trial++ {
		s := randomUnfairPairs(rng, int(rng.Uint64()%300))
		add := randomUnfairPairs(rng, int(rng.Uint64()%40))
		sortRun(s)
		sortRun(add)
		var drop, want []UnfairPair
		for _, p := range s {
			if rng.Uint64()%4 == 0 {
				drop = append(drop, p)
			} else {
				want = append(want, p)
			}
		}
		want = append(want, add...)
		sortRun(want)
		got := splice(nil, s, drop, add, lessUnfair)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d pairs, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: index %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}

		ps, dropP, addP, wantP := make([]float64, len(s)), make([]float64, len(drop)), make([]float64, len(add)), make([]float64, len(want))
		for i := range s {
			ps[i] = s[i].P
		}
		for i := range drop {
			dropP[i] = drop[i].P
		}
		for i := range add {
			addP[i] = add[i].P
		}
		for i := range want {
			wantP[i] = want[i].P
		}
		for _, xs := range [][]float64{ps, dropP, addP, wantP} {
			sort.Float64s(xs)
		}
		if gotP := splice(nil, ps, dropP, addP, lessFloat); !slices.Equal(gotP, wantP) {
			t.Fatalf("trial %d: p-values spliced to %v, want %v", trial, gotP, wantP)
		}
	}
}
