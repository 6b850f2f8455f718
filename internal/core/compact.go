package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// Online container maintenance: compaction and scrub over a live mount.
//
// Compaction rewrites a framed file's container to its minimal
// equivalent (internal/codec.CompactContainer) under the entry's full
// exclusion — truncMu (readers out), writeMu (writers and renames out),
// drained pipeline — via the crash-safe replace protocol shared with the
// offline engine: the compacted image is written whole to a temporary
// sibling, synced, and renamed over the original, so a power cut leaves
// either the old container or the complete new one. The entry's backend
// handle is then reopened on the replacement and swapped in; the old
// handle is retired (closed at last close), so stale snapshots keep
// hitting an open, orphaned file. The table guard (fs.mu re-check that
// the entry still owns its path) makes the commit atomic against Remove
// and the open-file table lifecycle, the same way RepairOnOpen commits
// its truncate.
//
// Scrub re-verifies every container on the mount: per-frame read+decode
// units fan out across the mount's IO workers through the lowest-
// priority job queue — checkpoint writes and restart read-ahead always
// come first, so scrubbing rides on idle worker capacity (the pFSCK
// observation that checking parallelizes across independent units).

// maybeCompact applies the mount's compaction policy to e: a cheap
// liveness check on the in-memory frame index, then the full rewrite
// when the thresholds are crossed. Called after Sync and writable Close;
// a policy-triggered rewrite failure is not the caller's error — the
// container is simply left uncompacted.
func (fs *FS) maybeCompact(e *fileEntry) {
	if !fs.opts.Compaction.enabled() {
		return
	}
	e.mu.Lock()
	framed := e.framed
	frames := append([]codec.FrameInfo(nil), e.frames...)
	total := e.appendOff
	e.mu.Unlock()
	if !framed || len(frames) == 0 {
		return
	}
	lv := codec.Analyze(frames)
	if !fs.opts.Compaction.due(reclaimable(lv, total), total) {
		return
	}
	fs.compactEntry(e, false)
}

// reclaimable returns the bytes a rewrite of a container with liveness
// lv and total backend bytes would reclaim (dead frames plus anything —
// torn junk — past the live footprint, minus the marker a rewrite must
// synthesize).
func reclaimable(lv codec.Liveness, total int64) int64 {
	r := total - lv.LiveBytes
	if lv.NeedMarker {
		r -= codec.HeaderSize
	}
	return r
}

// Compact rewrites the named file's frame container to its minimal
// equivalent, regardless of the mount's compaction policy thresholds.
// Plain files and already-minimal containers are a no-op. The rewrite
// never changes what reads return — only the backend bytes backing them.
func (fs *FS) Compact(name string) error {
	if err := fs.checkOpen(); err != nil {
		return err
	}
	key := vfs.Clean(name)
	if e := fs.pinEntry(key); e != nil {
		cerr := fs.compactEntry(e, true)
		if rerr := fs.releaseEntry(e); cerr == nil {
			cerr = rerr
		}
		return cerr
	}
	// Closed file: route through the open path so container indexing,
	// salvage, and the table lifecycle all apply as usual.
	f, err := fs.Open(key, vfs.ReadWrite)
	if err != nil {
		return err
	}
	cerr := fs.compactEntry(f.(*file).entry, true)
	if err := f.Close(); cerr == nil {
		cerr = err
	}
	return cerr
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

// compactEntry performs one container rewrite on an open entry. force
// skips the policy thresholds (explicit Compact calls); the no-work
// cases (plain file, already-minimal container) stay no-ops either way.
func (fs *FS) compactEntry(e *fileEntry, force bool) error {
	var sp obs.Span
	if fs.tracer.Enabled() {
		sp = fs.tracer.Start("crfs.compact")
		sp.Attr("file", e.pathName())
		defer sp.End()
	}
	e.truncMu.Lock()
	defer e.truncMu.Unlock()
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.flushTailLocked()
	if err := e.waitDrained(); err != nil {
		return err
	}
	e.mu.Lock()
	framed := e.framed
	frames := append([]codec.FrameInfo(nil), e.frames...)
	name := e.name // stable: rename needs writeMu, which we hold
	appendOff := e.appendOff
	e.mu.Unlock()
	if !framed {
		return nil
	}
	// The backend size is the authority on the rewrite's gain: it
	// includes torn junk past the frame chain that a salvaged-but-
	// unrepaired container still carries, which the rewrite absorbs.
	total := appendOff
	if info, err := fs.backend.Stat(name); err == nil && info.Size > total {
		total = info.Size
	}
	lv := codec.Analyze(frames)
	gain := reclaimable(lv, total)
	if gain <= 0 || (!force && !fs.opts.Compaction.due(gain, total)) {
		return nil
	}

	// Stage the compacted image, reading through a fresh read-only
	// handle: the entry's own backend handle inherits the first opener's
	// access mode and may be write-only. Payload verification inside
	// CompactContainer means a container that no longer decodes is left
	// untouched for scrub to report, never rewritten.
	rf, err := fs.backend.Open(name, vfs.ReadOnly)
	if err != nil {
		return fmt.Errorf("core: compact %s: %w", name, err)
	}
	box, newFrames, st, err := codec.CompactContainer(rf, frames, nil)
	rf.Close()
	if err != nil {
		return fmt.Errorf("core: compact %s: %w", name, err)
	}
	tmp := name + compact.TempSuffix
	if err := compact.StageReplacement(fs.backend, tmp, box); err != nil {
		fs.backend.Remove(tmp)
		return fmt.Errorf("core: compact %s: %w", name, err)
	}

	// Commit: rename over the original and swap the entry's handle, all
	// under fs.mu so the table cannot re-point the path mid-replace (the
	// RepairOnOpen precedent: one backend round-trip under the table
	// lock on a rare maintenance path).
	fs.mu.Lock()
	if fs.closed || fs.files[name] != e {
		fs.mu.Unlock()
		fs.backend.Remove(tmp)
		return nil // unmounted or evicted (Remove) underfoot: abandon
	}
	if err := fs.backend.Rename(tmp, name); err != nil {
		fs.mu.Unlock()
		fs.backend.Remove(tmp)
		return fmt.Errorf("core: compact %s: %w", name, err)
	}
	nf, err := fs.backend.Open(name, vfs.ReadWrite)
	if err != nil {
		// The replacement landed but cannot be reopened; the old handle
		// now reads an orphaned file. Fail-stop the entry rather than
		// serve a container the path no longer means.
		e.mu.Lock()
		e.failLocked(err)
		e.mu.Unlock()
		fs.mu.Unlock()
		return fmt.Errorf("core: compact %s: reopen: %w", name, err)
	}
	e.dropDecoded(true) // frame positions restart; cached pos must not alias
	sort.Slice(newFrames, func(i, j int) bool {
		a, b := newFrames[i].Header, newFrames[j].Header
		return a.Off < b.Off || (a.Off == b.Off && a.Seq < b.Seq)
	})
	e.mu.Lock()
	e.retired = append(e.retired, e.backendFile)
	e.backendFile = nf
	e.frames = newFrames
	e.maxRawLen = 0
	for _, fr := range newFrames {
		if n := int64(fr.Header.RawLen); n > e.maxRawLen {
			e.maxRawLen = n
		}
	}
	e.appendOff = int64(len(box))
	e.frameSeq = uint64(st.FramesOut)
	e.mu.Unlock()
	fs.mu.Unlock()
	if e.pf != nil {
		// Prefetched extents were fetched from the old container layout;
		// a job that raced the swap dies on the generation bump.
		e.pf.invalidate()
	}
	fs.stats.containersCompacted.Add(1)
	fs.stats.compactFramesDropped.Add(int64(st.FramesDropped))
	fs.stats.compactBytesReclaimed.Add(total - st.BytesOut)
	fs.stats.checksumVerified.Add(int64(st.ChecksumVerified))
	fs.stats.checksumSkipped.Add(int64(st.FramesUpgraded))
	return nil
}

// ScrubOptions configures an online scrub pass.
type ScrubOptions struct {
	// Repair truncates damaged closed containers to their longest
	// verified frame prefix (the salvage prefix rule, applied in
	// place). Containers with open handles are only reported: their
	// torn tails were already salvaged at open, and cutting backend
	// bytes under a live entry is the repair-on-open path's job.
	Repair bool
}

// Scrub walks every frame container on the mount's backend and
// re-verifies every frame — payload read back and decode-checked —
// fanning the per-frame work across the mount's IO workers at the
// lowest queue priority. Open files are drained and verified from their
// in-memory index under the read lock; closed files are scanned from
// the backend. Defects are data, collected in the report; the error
// covers only walk-level failures.
func (fs *FS) Scrub(o ScrubOptions) (*compact.Report, error) {
	if err := fs.checkOpen(); err != nil {
		return nil, err
	}
	var sp obs.Span
	if fs.tracer.Enabled() {
		sp = fs.tracer.Start("crfs.scrub")
		defer sp.End()
	}
	rep := &compact.Report{}
	err := compact.Walk(fs.backend, ".", func(path string, size int64) error {
		rep.Add(fs.scrubOne(path, size, o))
		return nil
	})
	// ScrubCorruptions is a per-frame counter; torn containers are a
	// separate defect class, visible in the report and the salvage
	// counters.
	fs.stats.framesVerified.Add(rep.Frames)
	fs.stats.scrubCorruptions.Add(rep.CorruptFrames)
	fs.stats.scrubRepaired.Add(int64(rep.Repaired))
	fs.stats.checksumVerified.Add(rep.ChecksumVerified)
	fs.stats.checksumSkipped.Add(rep.ChecksumSkipped)
	fs.stats.checksumFailed.Add(rep.ChecksumFailures)
	return rep, err
}

// scrubOne verifies one container, routing open files through their
// entry (drained, in-memory index, shared read lock) and closed files
// through the offline engine with the backend handle.
func (fs *FS) scrubOne(path string, size int64, o ScrubOptions) compact.FileReport {
	if e := fs.pinEntry(path); e != nil {
		defer fs.releaseEntry(e)
		fr := compact.FileReport{Path: path}
		e.flushTail()
		if err := e.waitDrained(); err != nil {
			fr.Err = err.Error()
			return fr
		}
		// The read lock excludes truncation and compaction for the whole
		// verification; concurrent appends only add frames past the
		// snapshot, never mutate the snapshotted ones.
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
		res := compact.VerifyFrames(bf, frames, fs.submitJob)
		fr.Frames = res.Verified
		fr.Bytes = res.Bytes
		fr.CorruptFrames = res.Corrupt
		fr.ChecksumFailures = res.ChecksumFailed
		fr.ChecksumVerified = res.ChecksumVerified
		fr.ChecksumSkipped = res.ChecksumSkipped
		if res.Failed > 0 {
			fr.Err = res.Err // unverifiable, not corrupt
		}
		return fr
	}
	return compact.ScrubFile(fs.backend, path, size, compact.ScrubOptions{Repair: o.Repair}, fs.submitJob)
}

// submitJob hands one maintenance unit to the IO workers' lowest-
// priority queue, blocking until a worker accepts it: maintenance
// throughput scales with IOThreads, never with the submitting thread,
// and a saturated checkpoint stream simply delays it (writes outrank
// scrubbing). If the mount is tearing down, the unit runs on the
// caller so waiters are never stranded. Jobs must not submit jobs — a
// nested submit could deadlock with every worker blocked inside one.
func (fs *FS) submitJob(j func()) {
	if !fs.enqueueJob(j) {
		j()
	}
}

// enqueueJob is the blocking, shutdown-safe jobq send. Senders hold the
// read half of jobMu across the send; Unmount takes the write half
// before closing the queue, so a close can never race a send (the
// write lock waits out blocked senders — the workers are still alive
// at that point and drain them). A sender arriving after shutdown is
// refused and runs its unit inline.
func (fs *FS) enqueueJob(j func()) bool {
	fs.jobMu.RLock()
	defer fs.jobMu.RUnlock()
	if fs.jobsClosed {
		return false
	}
	at := time.Now().UnixNano()
	fs.jobq <- func() {
		fs.hist.queueWaitJob.Observe(time.Now().UnixNano() - at)
		j()
	}
	return true
}

// Entry handles are fed to compact.VerifyFrames as plain readers.
var _ io.ReaderAt = backendHandle(nil)
