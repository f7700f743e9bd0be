// Package dead holds exports with and without production callers.
package dead

import "fmt"

func OnlyTests() int { return 1 } // want `exported func OnlyTests is used by no non-test file`

func UsedByMain() int { return 2 } // want:none

// SelfOnly's only caller is itself.
func SelfOnly(n int) int { // want `exported func SelfOnly`
	if n > 0 {
		return SelfOnly(n - 1)
	}
	return 0
}

// Aliased is re-exported by the root package.
type Aliased struct{}

func (Aliased) ViaAlias() int { return 3 } // want:none

// Impl is printed by the binary, which reaches String through fmt.Stringer.
type Impl struct{ n int }

func (i Impl) String() string { return fmt.Sprint(i.n) } // want:none

func (Impl) Unused() {} // want `exported method Unused`

//lint:deadexport-ok a hook the package's tests need
func Hook() {}

var DeadVar = 1 // want `exported var DeadVar`

const DeadConst = 2 // want `exported const DeadConst`

type DeadType int // want `exported type DeadType`
