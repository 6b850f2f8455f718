// Package suite registers the crfsvet analyzers: the two DESIGN.md
// invariants no test can stand in for, a lock-order inversion (lockorder)
// and an identity test of a wrapped sentinel (errwrap). Its
// TestModuleInvariants is the one driver: it runs the list over the whole
// module, so `go test ./...` breaks on an invariant regression.
package suite

import (
	"crfs/internal/analysis"
	"crfs/internal/analysis/errwrap"
	"crfs/internal/analysis/lockorder"
)

// All is the crfsvet analyzer suite, in diagnostic-output order.
var All = []*analysis.Analyzer{
	lockorder.Analyzer,
	errwrap.Analyzer,
}
