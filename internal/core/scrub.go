package core

import (
	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// Online scrub: re-verify every container on a live mount. Per-frame
// read+decode units fan out over a pool of IOThreads goroutines that
// lives for the pass (the offline engine's pool — the pFSCK observation
// that checking parallelizes across independent units, on workers of its
// own rather than inside the filesystem's IO path). Rewriting containers
// — compaction, repair — is offline work: internal/compact, crfsck.

// Scrub walks every frame container on the mount's backend and
// re-verifies every frame — payload read back and decode-checked. Open
// files (a daemon's staged PUTs among them) are drained and verified
// from their in-memory index under the read lock; closed files are
// scanned from the backend. Nothing is repaired. Defects are data,
// collected in the report; the error covers only walk-level failures.
func (fs *FS) Scrub() (*compact.Report, error) {
	if err := fs.checkOpen(); err != nil {
		return nil, err
	}
	var sp obs.Span
	if fs.tracer.Enabled() {
		sp = fs.tracer.Start("crfs.scrub")
		defer sp.End()
	}
	p := compact.NewPool(fs.opts.IOThreads)
	defer p.Close()
	rep := &compact.Report{}
	err := compact.Walk(fs.backend, ".", func(path string, size int64) error {
		rep.Add(fs.scrubOne(path, size, p.Submit))
		return nil
	})
	// ScrubCorruptions is a per-frame counter; torn containers are a
	// separate defect class, visible in the report and the salvage
	// counters.
	fs.stats.framesVerified.Add(rep.Frames)
	fs.stats.scrubCorruptions.Add(rep.CorruptFrames)
	fs.stats.checksumVerified.Add(rep.ChecksumVerified)
	fs.stats.checksumFailed.Add(rep.ChecksumFailures)
	return rep, err
}

// scrubOne verifies one container, routing open files through their
// entry (drained, in-memory index, shared read lock) and closed files
// through the offline engine with the backend handle.
func (fs *FS) scrubOne(path string, size int64, submit compact.Submit) compact.FileReport {
	if e := fs.pinEntry(path); e != nil {
		defer fs.releaseEntry(e)
		fr := compact.FileReport{Path: path}
		e.flushTail()
		if err := e.waitDrained(); err != nil {
			fr.Err = err.Error()
			return fr
		}
		// The read lock excludes truncation for the whole verification;
		// concurrent appends only add frames past the snapshot, never
		// mutate the snapshotted ones.
		e.truncMu.RLock()
		defer e.truncMu.RUnlock()
		e.mu.Lock()
		if !e.framed {
			e.mu.Unlock()
			return fr // demoted or plain under a raw mount: nothing to verify
		}
		frames := append([]codec.FrameInfo(nil), e.frames...)
		e.mu.Unlock()
		// A fresh read-only handle: the entry's backend handle inherits
		// the first opener's access mode and may be write-only.
		bf, err := fs.backend.Open(path, vfs.ReadOnly)
		if err != nil {
			fr.Err = err.Error()
			return fr
		}
		defer bf.Close()
		fr.Record(compact.VerifyFrames(bf, frames, submit))
		return fr
	}
	return compact.ScrubFile(fs.backend, path, size, false, submit)
}

// pinEntry returns the open entry for key with an extra table reference
// (released via releaseEntry), or nil when the path is not open.
func (fs *FS) pinEntry(key string) *fileEntry {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, ok := fs.files[key]
	if !ok {
		return nil
	}
	e.mu.Lock()
	e.refs++
	e.mu.Unlock()
	return e
}
