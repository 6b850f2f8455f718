// Package atomicstats enforces the "Stats are lock-free atomics" bullet
// of DESIGN.md's concurrency invariants: the hot write path never takes
// a statistics lock, so every counter field must be safe to touch
// concurrently without one.
//
// A struct with at least one sync/atomic typed field (atomic.Int64 &
// co.) is a counter struct when its name says so (stat/counter/metric)
// or when counters are all it holds, and every one of its integer
// fields must then be a sync/atomic type. A plain int64 slipped in next
// to forty atomic.Int64s compiles fine, races silently, and is exactly
// the regression this rule breaks the build on. Mixed data structures
// that pair an atomic field with mutex- or channel-guarded state (core's
// chunk, bufferPool) are out of scope: their plain fields are guarded by
// the documented locks, not by atomics. Call-style atomics
// (atomic.AddInt64(&s.n, 1)) are not policed: the module has none.
package atomicstats

import (
	"go/ast"
	"go/types"
	"strings"

	"crfs/internal/analysis"
)

// Analyzer is the atomicstats check.
var Analyzer = &analysis.Analyzer{
	Name: "atomicstats",
	Doc:  "counter-struct fields must be sync/atomic typed; no mixed plain counters",
	Run:  run,
}

// isAtomicType reports whether t is one of sync/atomic's typed atomics.
func isAtomicType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func isPlainCounterType(t types.Type) bool {
	basic, ok := types.Unalias(t).Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// counterStructName matches type names that declare themselves counter
// holders; such structs are held to the rule even when they also carry
// non-counter fields (labels, parents).
func counterStructName(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "stat") ||
		strings.Contains(lower, "counter") ||
		strings.Contains(lower, "metric")
}

// run flags plain integer/bool fields inside counter structs: structs
// carrying sync/atomic typed fields that are either named as counter
// holders or hold nothing but counters.
func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			hasAtomic, pureCounters := false, true
			for _, field := range st.Fields.List {
				tv, ok := pass.Info.Types[field.Type]
				if !ok {
					pureCounters = false
					continue
				}
				switch {
				case isAtomicType(tv.Type):
					hasAtomic = true
				case isPlainCounterType(tv.Type):
					// counter-shaped; the name or purity decides below
				default:
					pureCounters = false
				}
			}
			if !hasAtomic || !(pureCounters || counterStructName(ts.Name.Name)) {
				return true
			}
			for _, field := range st.Fields.List {
				tv, ok := pass.Info.Types[field.Type]
				if !ok || !isPlainCounterType(tv.Type) {
					continue
				}
				for _, name := range field.Names {
					pass.Reportf(name.Pos(),
						"plain %s counter %s in atomic counter struct %s: use a sync/atomic type (racy mixed access)",
						tv.Type, name.Name, ts.Name.Name)
				}
			}
			return true
		})
	}
	return nil
}
