// Package core exercises the workerqueue analyzer; its name puts it in
// the guarded-package set, like the real internal/core.
package core

type FS struct {
	jobq chan func()
}

// Mount is the worker-pool bootstrap: spawning here is the allowed case.
func Mount(workers int) *FS {
	fs := &FS{jobq: make(chan func(), workers)}
	for i := 0; i < workers; i++ {
		go fs.ioWorker() // clean: bootstrap spawn
	}
	return fs
}

func (fs *FS) ioWorker() {
	for j := range fs.jobq {
		j()
	}
}

// Scrub must fan out through a pool, not raw goroutines.
func (fs *FS) Scrub() {
	go fs.ioWorker() // want `raw goroutine spawn in Scrub outside the worker-pool bootstrap`
}

func helper() {
	go func() {}() // want `raw goroutine spawn in helper outside the worker-pool bootstrap`
}

// Mount as a *method* is not the bootstrap function.
func (fs *FS) Mount() {
	go func() {}() // want `raw goroutine spawn in Mount outside the worker-pool bootstrap`
}
