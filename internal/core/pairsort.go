package core

import "sort"

// byUnfair sorts pairs in lessUnfair order, comparing and swapping them in
// place.
type byUnfair []UnfairPair

func (p byUnfair) Len() int           { return len(p) }
func (p byUnfair) Less(i, j int) bool { return lessUnfair(&p[i], &p[j]) }
func (p byUnfair) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }

// sortUnfairPairs sorts pairs into the canonical result order (lessUnfair).
// lessUnfair is a strict total order over distinct pairs (ties fall through
// to the unique (I, J) identity), so every correct sort produces the
// identical permutation, whatever order the sweep's workers collected the
// pairs in.
func sortUnfairPairs(pairs []UnfairPair) {
	sort.Sort(byUnfair(pairs))
}

// splice appends to dst the sorted s without the elements of drop and with
// those of add, and returns dst. drop and add are sorted by less, and s
// holds every element of drop. It moves s in runs, and finds each run's end
// by binary search, so it compares O((len(drop)+len(add)) log len(s))
// times.
func splice[E any](dst, s, drop, add []E, less func(a, b *E) bool) []E {
	i, d, a := 0, 0, 0
	for d < len(drop) || a < len(add) {
		if a == len(add) || d < len(drop) && !less(&add[a], &drop[d]) {
			at := i + lowerBound(s[i:], &drop[d], less)
			dst = append(dst, s[i:at]...)
			i = at + 1
			d++
			continue
		}
		at := i + lowerBound(s[i:], &add[a], less)
		dst = append(dst, s[i:at]...)
		dst = append(dst, add[a])
		i = at
		a++
	}
	return append(dst, s[i:]...)
}

// lowerBound returns the first index of the less-sorted s whose element
// does not sort before x.
func lowerBound[E any](s []E, x *E, less func(a, b *E) bool) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if less(&s[m], x) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// lessFloat orders p-values for splice.
func lessFloat(a, b *float64) bool { return *a < *b }
