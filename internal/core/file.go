package core

import (
	"fmt"
	"io"
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
	// (seqRun is an int32 so that it fills the padding after mu: with
	// copy added, a file stays in the 96-byte size class.)
	seqRun int32 // consecutive reads that continued exactly at seqEnd, counted up to seqThreshold
	seqEnd int64 // end offset of the last read
	planAt int64 // stream offset at which read-ahead is next planned

	// copy is what the handle serves its stream's small reads from (nil
	// until the first one). Guarded by mu.
	copy *streamCopy

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
// path; clean plain files stay pure passthrough. A stream of small reads
// is served from a short copy of the file the handle holds (streamCopy),
// which a read that misses it refills through that same path.
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
	r := f.noteRead(p, off)
	var n int
	var err error
	switch {
	case r.hit:
		n = len(p)
	case r.fill != nil:
		n, err = f.refill(r.fill, r.want, p, off)
	default:
		n, err = f.entry.readAt(p, off, r.stream)
	}
	if timed {
		calls.readAt.Observe(f.fs.monotonic() - t0)
	}
	sp.End()
	calls.reads.Add(1)
	calls.bytesRead.Add(int64(n))
	if r.plan && n > 0 {
		f.planReadAhead(off + int64(n))
	}
	return n, err
}

// streamCopy is a short copy of a file that one handle serves a stream of
// small reads from: buf[:n] is what the bytes at off read as when the
// entry had counted writes writes and its read-ahead generation was gen.
// It holds while both still are and the entry has not failed (valid).
// Copies come from the mount's free list (FS.copies) and go back at Close.
type streamCopy struct {
	buf    []byte // selfFetchMax bytes
	off, n int64
	writes int64
	gen    uint64

	// run is what the handle's current run of small sequential reads had
	// read before the read at hand: how far a refill copies ahead.
	run int64
}

// valid reports whether the copy still reads as e does. That takes
// nothing but the snapshot, loaded before the refill read e: every write
// counts itself as its last step, after its bytes are in the pipeline
// and the size is set; truncate, rename, chunk retirement and the last
// close bump the generation, and a truncate holds truncMu exclusively, so
// no refill straddles one; and a backend failure, which reads must report
// from then on, sets failed (complete bumps the generation before it
// records the failure, so a refill can fall between the two).
func (c *streamCopy) valid(e *fileEntry) bool {
	return e.calls.writes.Load() == c.writes && e.pf.gen.Load() == c.gen && !e.failed.Load()
}

// readRoute is noteRead's verdict on one read: whether it belongs to a
// recognised stream, whether read-ahead is due once it has been served,
// and how it is served — from the handle's copy (hit), by refilling the
// copy with want bytes at the read's offset (fill, which noteRead took
// from the handle), or by the entry's read path alone.
type readRoute struct {
	stream, plan, hit bool
	fill              *streamCopy
	want              int64
}

// noteRead feeds the handle's sequential detector with the read of p at
// off, before the read runs (the detector assumes the read will be full;
// a short one simply breaks the run). The read is part of a recognised
// stream when it is at least the seqThreshold-th back-to-back sequential
// one, and read-ahead is due to be planned once it has been served: when
// the stream is first recognised, and from then on each time it enters a
// new unit of planning (planReadAhead), never per call.
//
// A stream's small read (shorter than selfFetchMax) that lies inside the
// handle's valid copy is served from it here, under the detector's lock.
// One that misses, or finds the copy stale, refills the copy with what
// follows it: as much as the run of small reads has read so far, within
// selfFetchMax and the end of the ChunkSize block, and never less than
// the read. So a stream copies ahead only as far as it has shown it
// reads, and a lone small read amid large ones copies nothing extra.
func (f *file) noteRead(p []byte, off int64) (r readRoute) {
	e := f.entry
	if e.pf == nil {
		return r
	}
	n := int64(len(p))
	small := n > 0 && n < selfFetchMax
	f.mu.Lock()
	seq := off == f.seqEnd
	if !seq {
		f.seqRun, f.planAt = 0, 0
	}
	if f.seqRun < seqThreshold {
		f.seqRun++
	}
	f.seqEnd = off + n
	r.stream = f.seqRun >= seqThreshold
	r.plan = r.stream && f.seqEnd >= f.planAt
	c := f.copy
	if c != nil && !(seq && small) {
		c.run = 0
	}
	if r.stream && small {
		if c == nil {
			c = f.fs.takeCopy()
			f.copy = c
		}
		if off >= c.off && off+n <= c.off+c.n && c.valid(e) {
			copy(p, c.buf[off-c.off:])
			r.hit = true
		} else {
			bs := f.fs.opts.ChunkSize
			if r.want = max(n, min(selfFetchMax, bs-off%bs, c.run)); r.want > n {
				r.fill, f.copy = c, nil
			}
		}
		c.run += n
	}
	f.mu.Unlock()
	return r
}

// refill reads want bytes at off into c — a copy noteRead took from the
// handle — through the entry's read path, overlay, truncMu, read-ahead
// and all, exactly as a read of that size would go; serves p from them;
// and gives the copy back to the handle. The snapshot the copy is valid
// under is loaded before the read.
func (f *file) refill(c *streamCopy, want int64, p []byte, off int64) (int, error) {
	e := f.entry
	c.writes, c.gen = e.calls.writes.Load(), e.pf.gen.Load()
	m, err := e.readAt(c.buf[:want], off, true)
	c.off, c.n = off, 0
	if err == nil || err == io.EOF {
		c.n = int64(m)
	}
	n := copy(p, c.buf[:c.n])
	f.mu.Lock()
	if f.copy == nil && !f.closed.Load() {
		f.copy, c = c, nil
	}
	f.mu.Unlock()
	if c != nil {
		// Closed meanwhile, or a concurrent read of the handle took a copy
		// of its own.
		f.fs.putCopy(c)
	}
	switch {
	case err != nil && err != io.EOF:
		return 0, err
	case n < len(p):
		return n, io.EOF
	}
	return n, nil
}

// takeCopy returns an idle stream copy of the mount, or a new one when
// none is idle.
func (fs *FS) takeCopy() *streamCopy {
	select {
	case c := <-fs.copies:
		return c
	default:
		return &streamCopy{buf: make([]byte, selfFetchMax)}
	}
}

// putCopy empties a copy and keeps it idle, unless the free list is full.
// Under test its bytes are poisoned like a recycled chunk's.
func (fs *FS) putCopy(c *streamCopy) {
	*c = streamCopy{buf: c.buf}
	if poisonChunks.Load() {
		for i := range c.buf {
			c.buf[i] = 0xDB
		}
	}
	select {
	case fs.copies <- c:
	default:
	}
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
// drop the table reference. The handle's copy goes back to the mount.
func (f *file) Close() error {
	if f.closed.Swap(true) {
		return fmt.Errorf("core: close %s: %w", f.name, vfs.ErrClosed)
	}
	f.mu.Lock()
	c := f.copy
	f.copy = nil
	f.mu.Unlock()
	if c != nil {
		f.fs.putCopy(c)
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
