// Package workerqueue protects the IO-worker priority model. All
// asynchronous work in internal/core and internal/compact flows through
// the worker pools started at mount/pool construction — the FS queues
// drain in strict priority order over two tiers (checkpoint writes, then
// read-ahead), which is only true while those workers are the sole
// consumers of the mount's background work; a scrub pass brings a
// bounded pool of its own (compact.NewPool). A raw `go` statement
// anywhere else creates unbounded, unprioritized concurrency the model
// cannot see.
//
// The analyzer forbids `go` statements in the core and compact packages
// outside the named bootstrap functions that start the pools.
// Production code only; tests spawn goroutines to create races on
// purpose.
package workerqueue

import (
	"go/ast"
	"path"

	"crfs/internal/analysis"
)

// Analyzer is the workerqueue check.
var Analyzer = &analysis.Analyzer{
	Name:          "workerqueue",
	Doc:           "no raw goroutine spawns in internal/core / internal/compact outside the worker-pool bootstrap",
	SkipTestFiles: true,
	Run:           run,
}

// Bootstrap lists, per guarded package (keyed by the import path's last
// element), the functions allowed to spawn: the pool constructors.
var Bootstrap = map[string]map[string]bool{
	"core":    {"Mount": true},
	"compact": {"NewPool": true},
}

func run(pass *analysis.Pass) error {
	allowed, guarded := Bootstrap[path.Base(pass.Pkg.Path())]
	if !guarded {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if allowed[fd.Name.Name] && fd.Recv == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(),
						"raw goroutine spawn in %s outside the worker-pool bootstrap (%s): route work through the worker queues (writes > read-ahead) or a scrub pass's pool",
						fd.Name.Name, bootstrapNames(allowed))
				}
				return true
			})
		}
	}
	return nil
}

func bootstrapNames(allowed map[string]bool) string {
	names := ""
	for n := range allowed {
		if names != "" {
			names += ", "
		}
		names += n
	}
	return names
}
