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
