// Package deadexport is the fixture module's public API.
package deadexport

import "lcsf/lintfixture/deadexport/internal/dead"

// Aliased re-exports an internal type: every method of it is API.
type Aliased = dead.Aliased
