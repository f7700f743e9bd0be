package core

import (
	"sort"
	"sync"
)

// pairSortThreshold is the pair count below which sortUnfairPairs stays
// sequential: below it, goroutine and merge overhead outweighs the parallel win.
const pairSortThreshold = 1 << 12

// byUnfair sorts pairs in lessUnfair order, comparing and swapping them in
// place.
type byUnfair []UnfairPair

func (p byUnfair) Len() int           { return len(p) }
func (p byUnfair) Less(i, j int) bool { return lessUnfair(&p[i], &p[j]) }
func (p byUnfair) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }

// sortUnfairPairs sorts pairs into the canonical result order (lessUnfair)
// using up to workers goroutines: equal segments sorted independently, then
// pairwise parallel merge rounds through one auxiliary buffer. lessUnfair is
// a strict total order over distinct pairs (ties fall through to the unique
// (I, J) identity), so every correct sort produces the identical permutation
// — the parallel result is byte-identical to a sequential sort's, which is
// what keeps the FDR phase inside the audit's determinism guarantee.
func sortUnfairPairs(pairs []UnfairPair, workers int) {
	n := len(pairs)
	if workers <= 1 || n < pairSortThreshold {
		sort.Sort(byUnfair(pairs))
		return
	}
	if workers > n {
		workers = n
	}

	bounds := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		bounds[i] = i * n / workers
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sort.Sort(byUnfair(pairs[lo:hi]))
		}(bounds[i], bounds[i+1])
	}
	wg.Wait()

	aux := make([]UnfairPair, n)
	src, dst := pairs, aux
	for len(bounds) > 2 {
		next := make([]int, 0, len(bounds)/2+2)
		var mg sync.WaitGroup
		for i := 0; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			next = append(next, lo)
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				mergeUnfairPairs(dst[lo:hi], src[lo:mid], src[mid:hi])
			}(lo, mid, hi)
		}
		if len(bounds)%2 == 0 {
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			next = append(next, lo)
			mg.Add(1)
			go func() {
				defer mg.Done()
				copy(dst[lo:hi], src[lo:hi])
			}()
		}
		next = append(next, n)
		mg.Wait()
		bounds = next
		src, dst = dst, src
	}
	if len(src) > 0 && len(pairs) > 0 && &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// mergeUnfairPairs merges two lessUnfair-sorted runs into dst
// (len(dst) == len(a)+len(b)). Stability is irrelevant under a strict total
// order, but taking from a on non-less keeps the merge stable anyway.
func mergeUnfairPairs(dst, a, b []UnfairPair) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if lessUnfair(&b[j], &a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// insertUnfairPairs merges the lessUnfair-sorted add into the
// lessUnfair-sorted s in place and returns s grown by len(add): one backward
// pass that moves only the pairs behind the first insertion point. The delta
// auditor's low set takes its rescored pairs this way.
func insertUnfairPairs(s, add []UnfairPair) []UnfairPair {
	n := len(s)
	s = append(s, add...)
	i, j := n-1, len(add)-1
	for k := len(s) - 1; j >= 0; k-- {
		if i >= 0 && lessUnfair(&add[j], &s[i]) {
			s[k] = s[i]
			i--
		} else {
			s[k] = add[j]
			j--
		}
	}
	return s
}
