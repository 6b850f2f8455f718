package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// file is an open CRFS handle. Multiple handles of the same path share a
// fileEntry; the handle itself only carries the open flags and close state.
type file struct {
	fs    *FS
	entry *fileEntry
	name  string
	flag  vfs.OpenFlag

	closed atomic.Bool

	mu sync.Mutex

	// Sequential-read detection (restart read pipeline). Detection is
	// per-handle — two restart readers interleaving offsets on shared
	// handles would defeat any shared-state detector — while the
	// prefetched data itself is cached on the shared entry. Guarded by mu.
	seqEnd int64 // end offset of the last read
	seqRun int   // consecutive reads that continued exactly at seqEnd
	planAt int64 // stream offset at which read-ahead is next planned

	// traceCtx parents this handle's pipeline spans (set by the daemon
	// from the request's propagated trace ID). Guarded by mu; read only
	// when the tracer is enabled, so the disabled path never takes mu.
	traceCtx obs.SpanContext
}

// SetSpanContext parents all subsequent spans of this handle's IO under
// ctx: the daemon calls it after Open so a remote request's trace ID
// reaches the core pipeline spans.
func (f *file) SetSpanContext(ctx obs.SpanContext) {
	f.mu.Lock()
	f.traceCtx = ctx
	f.mu.Unlock()
}

// spanCtx returns the handle's parent span context. Only called on the
// enabled path.
func (f *file) spanCtx() obs.SpanContext {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.traceCtx
}

func (f *file) Name() string { return f.name }

func (f *file) checkOpen() error {
	if f.closed.Load() {
		return fmt.Errorf("core: %s: %w", f.name, vfs.ErrClosed)
	}
	return nil
}

// WriteAt implements vfs.File: it copies p into pool chunks and returns;
// the backend write happens asynchronously on an IO thread.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if !f.flag.Writable() {
		return 0, fmt.Errorf("core: write %s: %w", f.name, vfs.ErrReadOnly)
	}
	if off < 0 {
		return 0, fmt.Errorf("core: write %s: negative offset: %w", f.name, vfs.ErrInvalid)
	}
	var sp obs.Span
	if f.fs.tracer.Enabled() {
		sp = f.fs.tracer.StartChild("crfs.write", f.spanCtx())
		sp.AttrInt("off", off)
		sp.AttrInt("bytes", int64(len(p)))
	}
	calls := f.entry.calls
	t0, timed := f.fs.sampleStart(calls.writes.Load())
	n, err := f.entry.write(p, off, sp.Context())
	if timed {
		calls.writeAt.Observe(f.fs.monotonic() - t0)
	}
	sp.End()
	return n, err
}

// callSampleStride is how often a WriteAt or ReadAt is timed into its
// shard's latency histogram. Timing a call costs two clock reads and the
// histogram's atomics, more than the copy a 512 B call is for, so only the
// calls whose shard count before them is a multiple of the stride pay it:
// the histograms are a uniform sample, the call counters stay exact. The
// stride is prime so the sample never locks onto power-of-two geometry (a
// 512 B stream opens a 4 MiB chunk every 8192 calls; a stride of 64 would
// time every one of those stalls).
const callSampleStride = 61

// sampleStart decides whether a call that finds count calls already on
// its shard is timed, and if so reads the clock it starts at.
func (fs *FS) sampleStart(count int64) (t0 int64, timed bool) {
	if count%callSampleStride != 0 {
		return 0, false
	}
	return fs.monotonic(), true
}

// ReadAt implements vfs.File. The paper passes reads straight through
// (§IV-D.1) because checkpoint files are never read while being written;
// for general workloads (mixed read/write, restart-while-checkpointing)
// that would return stale data, so reads are served through the
// buffered-read-through overlay: the durable bytes (backend, or decoded
// frames for a container) patched with this file's in-flight chunks and
// active partial chunk, in write order. The read never flushes or waits
// on the pipeline, so one reader cannot stall the asynchronous write
// path; clean plain files stay pure passthrough.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if !f.flag.Readable() {
		return 0, fmt.Errorf("core: read %s: %w", f.name, vfs.ErrReadOnly)
	}
	if off < 0 {
		// Validated here so framed reads (which never reach the backend's
		// own offset check) error like plain ones instead of returning
		// silent zeros.
		return 0, fmt.Errorf("core: read %s: negative offset: %w", f.name, vfs.ErrInvalid)
	}
	var sp obs.Span
	if f.fs.tracer.Enabled() {
		sp = f.fs.tracer.StartChild("crfs.read", f.spanCtx())
		sp.AttrInt("off", off)
		sp.AttrInt("bytes", int64(len(p)))
	}
	calls := f.entry.calls
	t0, timed := f.fs.sampleStart(calls.reads.Load())
	stream, plan := f.noteRead(off, int64(len(p)))
	n, err := f.entry.readAt(p, off, stream)
	if timed {
		calls.readAt.Observe(f.fs.monotonic() - t0)
	}
	sp.End()
	calls.reads.Add(1)
	calls.bytesRead.Add(int64(n))
	if plan && n > 0 {
		f.planReadAhead(off + int64(n))
	}
	return n, err
}

// noteRead feeds the handle's sequential detector with a read of n bytes
// at off, before the read runs (the detector assumes the read will be
// full; a short one simply breaks the run). stream reports that the read
// is at least the seqThreshold-th back-to-back sequential one — a
// recognised stream — and plan that read-ahead is due to be planned once
// it has been served: when the stream is first recognised, and from then
// on each time it enters a new unit of planning (planReadAhead), never
// per call.
func (f *file) noteRead(off, n int64) (stream, plan bool) {
	if f.entry.pf == nil {
		return false, false
	}
	f.mu.Lock()
	if off == f.seqEnd {
		f.seqRun++
	} else {
		f.seqRun, f.planAt = 1, 0
	}
	f.seqEnd = off + n
	stream = f.seqRun >= seqThreshold
	plan = stream && f.seqEnd >= f.planAt
	f.mu.Unlock()
	return stream, plan
}

// planReadAhead schedules read-ahead of what follows from on the IO
// workers and records where the stream must have got to before it is
// planned again.
func (f *file) planReadAhead(from int64) {
	var ctx obs.SpanContext
	if f.fs.tracer.Enabled() {
		ctx = f.spanCtx()
	}
	next := f.entry.pf.schedule(from, ctx)
	f.mu.Lock()
	f.planAt = next
	f.mu.Unlock()
}

// Truncate implements vfs.File.
func (f *file) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if !f.flag.Writable() {
		return fmt.Errorf("core: truncate %s: %w", f.name, vfs.ErrReadOnly)
	}
	e := f.entry
	e.flushTail()
	if err := e.waitDrained(); err != nil {
		return err
	}
	return e.truncate(size)
}

// Sync implements vfs.File: enqueue the current buffer chunk, wait for all
// outstanding chunk writes, then fsync the backend file (§IV-D.2). A
// backend write failure is reported by exactly one Sync or Close of the
// entry — the drain that first observes it — not echoed by every later
// call.
func (f *file) Sync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	var sp obs.Span
	if f.fs.tracer.Enabled() {
		sp = f.fs.tracer.StartChild("crfs.sync", f.spanCtx())
		defer sp.End()
	}
	t0 := time.Now()
	defer func() { f.fs.hist.sync.Observe(int64(time.Since(t0))) }()
	e := f.entry
	e.flushTail()
	if err := e.drainReport(); err != nil {
		return err
	}
	f.fs.stats.syncs.Add(1)
	return e.backendFile.Sync()
}

// Stat implements vfs.File. It resolves the entry's *current* table key,
// not the open-time name: the path may have been renamed since the open,
// and the handle must keep describing its file.
func (f *file) Stat() (vfs.FileInfo, error) {
	if err := f.checkOpen(); err != nil {
		return vfs.FileInfo{}, err
	}
	return f.fs.Stat(f.entry.pathName())
}

// Close implements vfs.File: enqueue the remaining partial chunk, block
// until "complete chunk count" equals "write chunk count" (§IV-C), then
// drop the table reference.
func (f *file) Close() error {
	if f.closed.Swap(true) {
		return fmt.Errorf("core: close %s: %w", f.name, vfs.ErrClosed)
	}

	var sp obs.Span
	if f.fs.tracer.Enabled() {
		sp = f.fs.tracer.StartChild("crfs.close", f.spanCtx())
		defer sp.End()
	}
	e := f.entry
	e.flushTail()
	drainErr := e.drainReport()
	releaseErr := f.fs.releaseEntry(e)
	if drainErr != nil {
		return drainErr
	}
	return releaseErr
}

var _ vfs.File = (*file)(nil)
