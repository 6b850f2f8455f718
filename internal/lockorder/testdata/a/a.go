// Package a exercises the lockorder check against the internal/core
// lock vocabulary: the struct and field names below shadow the real
// ones, so the check's (type, field) → rank table applies unchanged.
package a

import (
	"sync"

	"crfs/internal/codec"
)

type FS struct {
	mu    sync.Mutex
	files map[string]*fileEntry
}

type fileEntry struct {
	writeMu sync.Mutex
	truncMu sync.RWMutex
	mu      sync.Mutex
	decMu   sync.Mutex

	backendFile backendHandle
	frames      []codec.FrameInfo
}

type backendHandle interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// goodOrder walks the full documented chain in order: clean.
func goodOrder(fs *FS, e *fileEntry) {
	e.truncMu.Lock()
	e.writeMu.Lock()
	fs.mu.Lock()
	e.mu.Lock()
	e.decMu.Lock()
	e.decMu.Unlock()
	e.mu.Unlock()
	fs.mu.Unlock()
	e.writeMu.Unlock()
	e.truncMu.Unlock()
}

// badWriteUnderMu inverts writeMu and mu.
func badWriteUnderMu(e *fileEntry) {
	e.mu.Lock()
	e.writeMu.Lock() // want `acquires fileEntry\.writeMu \(rank 1\) while holding fileEntry\.mu \(rank 3`
	e.writeMu.Unlock()
	e.mu.Unlock()
}

// badTruncUnderTable acquires the entry truncate lock under the table lock.
func badTruncUnderTable(fs *FS, e *fileEntry) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e.truncMu.Lock() // want `acquires fileEntry\.truncMu \(rank 0\) while holding FS\.mu \(rank 2`
	e.truncMu.Unlock()
}

// deferHoldsToEnd: a deferred unlock keeps the lock held for the rest of
// the function, so the late truncMu acquisition still inverts the order.
func deferHoldsToEnd(e *fileEntry) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.Lock()
	e.mu.Unlock()
	e.truncMu.Lock() // want `acquires fileEntry\.truncMu \(rank 0\) while holding fileEntry\.writeMu \(rank 1`
	e.truncMu.Unlock()
}

// unlockClears: a released lock no longer constrains later acquisitions.
func unlockClears(fs *FS, e *fileEntry) {
	e.mu.Lock()
	e.mu.Unlock()
	e.writeMu.Lock()
	e.writeMu.Unlock()
	fs.mu.Lock()
	fs.mu.Unlock()
}

// ioUnderMu: backend and codec calls are forbidden under mu.
func ioUnderMu(e *fileEntry, buf []byte) {
	e.mu.Lock()
	e.backendFile.ReadAt(buf, 0)                // want `call to ReadAt while holding fileEntry\.mu`
	codec.DecodeFrame(codec.Header{}, buf, nil) // want `call to DecodeFrame while holding fileEntry\.mu`
	e.mu.Unlock()
	e.backendFile.ReadAt(buf, 0)                // clean: lock released
	codec.DecodeFrame(codec.Header{}, buf, nil) // clean
}

// ioUnderDecMu: the decode cache lock has the same IO exclusion.
func ioUnderDecMu(e *fileEntry, buf []byte) {
	e.decMu.Lock()
	defer e.decMu.Unlock()
	e.backendFile.WriteAt(buf, 0) // want `call to WriteAt while holding fileEntry\.decMu`
}

// acquiresTrunc is a helper whose transitive summary includes truncMu.
func acquiresTrunc(e *fileEntry) {
	e.truncMu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	e.truncMu.Unlock()
}

// callsAcquiresTrunc propagates the summary one level further.
func callsAcquiresTrunc(e *fileEntry) {
	acquiresTrunc(e)
}

// interprocBad: calling a function that may acquire truncMu while the
// table lock is held is the same inversion, one frame removed.
func interprocBad(fs *FS, e *fileEntry) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	callsAcquiresTrunc(e) // want `call to callsAcquiresTrunc may acquire fileEntry\.truncMu \(rank 0\) while holding FS\.mu \(rank 2`
}

// decodesFrames is a helper that performs codec IO.
func decodesFrames(e *fileEntry, buf []byte) {
	codec.DecodeFrame(codec.Header{}, buf, nil)
}

// interprocIO: transitively reaching a decode entrypoint under mu.
func interprocIO(e *fileEntry, buf []byte) {
	e.mu.Lock()
	decodesFrames(e, buf) // want `call to decodesFrames while holding fileEntry\.mu: callee transitively performs`
	e.mu.Unlock()
}

// goroutineFreshStack: a spawned goroutine starts with no locks held, so
// its acquisitions are not ordered against the spawner's.
func goroutineFreshStack(e *fileEntry) {
	e.mu.Lock()
	go func() {
		e.writeMu.Lock()
		e.writeMu.Unlock()
	}()
	e.mu.Unlock()
}

// tryLockFailReturn: the !TryLock early-return idiom holds the lock on
// the fall-through path.
func tryLockFailReturn(fs *FS, e *fileEntry) {
	if !e.writeMu.TryLock() {
		return
	}
	fs.mu.Lock()
	fs.mu.Unlock()
	e.truncMu.Lock() // want `acquires fileEntry\.truncMu \(rank 0\) while holding fileEntry\.writeMu \(rank 1`
	e.truncMu.Unlock()
	e.writeMu.Unlock()
}

// reacquire: taking the same class twice is a self-deadlock.
func reacquire(e *fileEntry) {
	e.mu.Lock()
	e.mu.Lock() // want `re-acquires fileEntry\.mu already held`
	e.mu.Unlock()
}

// earlyExitKeepsHeld: an unlock on a terminating branch does not release
// the lock for the fall-through path.
func earlyExitKeepsHeld(fs *FS, e *fileEntry, bail bool) {
	fs.mu.Lock()
	if bail {
		fs.mu.Unlock()
		return
	}
	e.mu.Lock() // clean: FS.mu → mu is the documented order
	e.mu.Unlock()
	e.truncMu.Lock() // want `acquires fileEntry\.truncMu \(rank 0\) while holding FS\.mu \(rank 2`
	e.truncMu.Unlock()
	fs.mu.Unlock()
}

// truncate has the shape of fileEntry.truncate: it takes truncMu, then mu.
func (e *fileEntry) truncate() {
	e.truncMu.Lock()
	defer e.truncMu.Unlock()
	e.mu.Lock()
	e.mu.Unlock()
}

// truncOpen: a fresh entry, not yet in fs.files, gets no exemption —
// calling its truncMu-taking method under FS.mu is still the inversion.
func truncOpen(fs *FS, name string) *fileEntry {
	e := &fileEntry{}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e.truncate() // want `call to truncate may acquire fileEntry\.truncMu \(rank 0\) while holding FS\.mu \(rank 2`
	fs.files[name] = e
	return e
}

// readLockCounts: RLock participates in the order like Lock.
func readLockCounts(e *fileEntry) {
	e.mu.Lock()
	e.truncMu.RLock() // want `acquires fileEntry\.truncMu \(rank 0\) while holding fileEntry\.mu \(rank 3`
	e.truncMu.RUnlock()
	e.mu.Unlock()
}
