// Fixture: allocation vocabulary inside //lint:hotpath kernels that
// hotpathalloc must catch — directly, transitively through static calls, and
// through interface dispatch resolved by class-hierarchy analysis.
package fixture

import "fmt"

type point struct{ x, y float64 }

//lint:hotpath
func allocZoo(n int, s string, m map[int]int) {
	buf := make([]float64, n) // want `make`
	_ = buf
	p := new(point) // want `new`
	_ = p
	buf = append(buf, 1) // want `append`
	_ = s + "!"          // want `string concatenation`
	b := []byte(s)       // want `string conversion`
	_ = b
	_ = fmt.Sprintf("%d", n) // want `fmt`
	q := &point{1, 2}        // want `address of composite literal`
	_ = q
	xs := []float64{float64(n)} // want `slice/map literal`
	_ = xs
	m[n] = 1     // want `map assignment`
	go spinner() // want `goroutine spawn`
}

func spinner() {}

//lint:hotpath
func closures(n int) int {
	f := func() int { return n } // want `closure capturing`
	g := func() int { return 1 } // want:none — captureless closures are static
	return f() + g()
}

// sink models a prepared-metric style interface parameter.
func sink(v any) {}

//lint:hotpath
func boxer(x int, p *point) {
	sink(x) // want `interface boxing`
	sink(p) // want:none — pointers fit the interface data word
	sink(3) // want:none — constants use the compiler's static boxes
}

// scorer mirrors a gate metric's dispatch shape: the kernel calls through
// the interface, and every program implementation joins the contract.
type scorer interface {
	score(a, b float64) float64
}

type fastScorer struct{}

func (fastScorer) score(a, b float64) float64 { return a + b } // want:none — alloc-free implementation

type slowScorer struct{ trace []float64 }

func (s *slowScorer) score(a, b float64) float64 {
	s.trace = append(s.trace, a) // want `append`
	return a + b
}

//lint:hotpath
func dispatchKernel(s scorer, xs []float64) float64 {
	var sum float64
	for i := range xs {
		sum += s.score(xs[i], 1)
	}
	return sum
}

//lint:hotpath
func entry(n int) {
	helperAlloc(n)
	exemptWholeFunc(n)
	coldFallback(n)    //lint:hotpathalloc-ok fallback excluded from the zero-alloc contract
	_ = growScratch(n) //lint:hotpathalloc-ok amortized growth, not per-call // want:none
}

// helperAlloc is reached transitively from entry; its allocation is part of
// the kernel.
func helperAlloc(n int) {
	_ = make([]int, n) // want `make`
}

// coldFallback sits behind a hotpathalloc-ok barrier on its only hot call
// site: nothing below it is scanned.
func coldFallback(n int) {
	_ = make([]int, n) // want:none — behind the call-site barrier
}

//lint:hotpathalloc-ok whole function exempted from the contract
func exemptWholeFunc(n int) {
	_ = make([]int, n) // want:none — declaration-level exemption
}

func growScratch(n int) []float64 {
	return make([]float64, n)
}
