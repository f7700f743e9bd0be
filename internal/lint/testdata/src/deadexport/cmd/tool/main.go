// Command tool is the fixture module's binary.
package main

import (
	"fmt"

	"lcsf/lintfixture/deadexport/internal/dead"
)

func main() {
	fmt.Println(dead.UsedByMain(), dead.Impl{})
}
