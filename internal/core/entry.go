package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crfs/internal/chunker"
	"crfs/internal/codec"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// fileEntry is one row of CRFS's open-file hash table (§IV-A). All open
// handles of the same path share the entry; it owns the backend handle, the
// per-file aggregator, the active chunk, the in-flight chunk list serving
// the buffered-read-through path, and the outstanding-chunk counters used
// by close()/fsync() to wait for completion.
type fileEntry struct {
	fs *FS

	// calls is the entry's shard of the per-call counters and latency
	// histograms (see callShard); backendFile is the backend handle every
	// handle of the path shares. Both are immutable from newFileEntry to
	// the last close, so workers, Sync and Close read them with no lock.
	calls       *callShard
	backendFile backendHandle

	// writeMu serializes the write/flush path of this file so that the
	// aggregation ops of one write are applied atomically even when the
	// writer must block on the buffer pool. ops is the aggregation-op
	// scratch the write path reuses under it.
	writeMu sync.Mutex
	ops     []chunker.Op

	// truncMu serializes truncation (exclusive) against the overlay read
	// path (shared): see readAt. Lock order: truncMu before writeMu
	// before mu/decMu; the prefetcher's mutex is independent.
	truncMu sync.RWMutex

	// mu guards everything below. cond (on mu) is signalled by IO workers
	// when completeChunks advances and by close when refs drops.
	mu   sync.Mutex
	cond *sync.Cond

	// name is the entry's current open-file table key. It changes when
	// the path is renamed while open, so all access is under mu (or
	// fs.mu+mu for table re-keying); use pathName outside locks.
	name string

	refs        int // open handles
	agg         *chunker.FileAgg
	active      *chunk   // chunk currently being filled, nil if none
	inflight    []*chunk // enqueued, not yet completed; flush (seq) order
	writeChunks int64    // chunks handed to the work queue ("write chunk count")
	doneChunks  int64    // chunks completed by IO threads ("complete chunk count")
	logicalSize int64    // max written end; backend size may lag while buffered

	// firstErr is the first backend write error; it fail-stops the
	// write/read paths of the entry (writes and reads refuse, internal
	// drains abort). pendingErr is the not-yet-reported surface error:
	// the next Sync or Close (across all handles) returns it exactly
	// once, so callers that retry after handling a failure are not fed
	// the same completion error forever. A later failure re-arms it.
	// failed mirrors firstErr != nil so the write path can check the
	// sticky error without taking mu; all three are set by failLocked.
	firstErr   error
	pendingErr error
	failed     atomic.Bool

	// Frame-container state (framed entries only, guarded by mu). A
	// framed entry's backend file is a sequence of codec frames rather
	// than the logical bytes; frames index the container, appendOff is
	// where the next frame lands, and frameSeq numbers flushes so decode
	// can replay overlapping extents in write order.
	framed    bool
	frames    []codec.FrameInfo // sorted by (logical offset, seq)
	maxRawLen int64             // largest raw extent; bounds the read search window
	appendOff int64
	frameSeq  uint64

	// pendingRepair (>= 0) marks a container whose torn tail was dropped
	// at open (reads serve the intact frame prefix, appends land right
	// after it) and asks Open to truncate the backend to that prefix
	// once the entry wins the table race (Options.RepairOnOpen); -1
	// means no repair is due.
	pendingRepair int64

	// decMu guards the one-frame decode cache, which makes sequential
	// small reads of a container cheap. The cache holds the read-path
	// reference of the decode buffer its frame (dec, at container offset
	// decPos) lives in: a reader pins the frame under decMu, copies after dropping
	// the lock, and unpins — the write overlay's rule — so replacing or
	// dropping the cached frame never recycles a buffer under a copy, and
	// concurrent reads of different frames decode in parallel. decGen
	// bumps on container reset so an in-flight decode can't republish a
	// pre-reset frame into the cache.
	decMu  sync.Mutex
	dec    *prefetched
	decPos int64
	decGen uint64

	// pf is the entry's read-ahead state (restart read pipeline), nil
	// when Options.ReadAhead is 0. Immutable after newFileEntry.
	pf *prefetcher
}

// backendHandle is the part of vfs.File the workers and entry use.
type backendHandle interface {
	WriteAt(p []byte, off int64) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

func newFileEntry(fs *FS, name string, backend backendHandle, chunkSize int64) *fileEntry {
	e := &fileEntry{
		fs:            fs,
		calls:         newCallShard(),
		name:          name,
		backendFile:   backend,
		agg:           chunker.NewFileAgg(chunkSize),
		pendingRepair: -1,
	}
	e.cond = sync.NewCond(&e.mu)
	if fs.opts.ReadAhead > 0 {
		e.pf = newPrefetcher(fs, e)
	}
	return e
}

// write runs the aggregation state machine for one positional write.
// It returns only after the payload has been copied into pool chunks; the
// backend writes happen asynchronously (§IV-B: "the write() returns").
// ctx, when valid, parents the pipeline spans of chunks this write
// seals (zero when tracing is off or the caller has no trace).
func (e *fileEntry) write(p []byte, off int64, ctx obs.SpanContext) (int, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()

	if e.failed.Load() {
		e.mu.Lock()
		defer e.mu.Unlock()
		return 0, e.firstErr
	}

	if e.pf != nil && len(p) > 0 {
		// Invalidate read-ahead before the first byte enters the pipeline:
		// a prefetched block overlapping this write would serve stale base
		// bytes once the write's chunk retires from the overlay.
		e.pf.invalidate()
	}

	e.ops = e.agg.Write(off, int64(len(p)), e.ops[:0])
	for _, op := range e.ops {
		switch op.Kind {
		case chunker.OpNewChunk:
			// May block (pool backpressure); under pressure the mount
			// flushes other files' partial chunks and takes back the
			// read-ahead that competes unfairly (reclaimPool).
			c := e.fs.pool.get(e)
			c.entry = e
			c.ctx = ctx
			e.mu.Lock()
			e.active = c
			e.mu.Unlock()
			e.fs.partials.Add(1)
		case chunker.OpCopy:
			c := e.active
			if op.Pos == 0 {
				c.start = op.Off
			}
			copy(c.buf[op.Pos:op.Pos+op.N], p[op.Src:op.Src+op.N])
			// Publish fill only after the bytes landed: concurrent
			// overlay readers load fill (acquire) and may then copy
			// buf[:fill] without further synchronization.
			c.fill.Store(op.Pos + op.N)
		case chunker.OpFlush:
			e.enqueueActive()
		}
	}
	e.mu.Lock()
	// POSIX: a zero-length write must not extend the file.
	if end := off + int64(len(p)); len(p) > 0 && end > e.logicalSize {
		e.logicalSize = end
	}
	e.mu.Unlock()
	e.calls.bytesWritten.Add(int64(len(p)))
	e.calls.writes.Add(1)
	return len(p), nil
}

// failLocked records a failure of the entry's backend: the first one
// fail-stops the entry, and the next Sync or Close owes the application
// one report of it. Caller holds mu.
func (e *fileEntry) failLocked(err error) {
	if e.firstErr == nil {
		e.firstErr = err
		e.failed.Store(true)
	}
	if e.pendingErr == nil {
		e.pendingErr = err
	}
}

// enqueueActive hands the active chunk to the work queue and bumps the
// outstanding counter. The frame sequence number is assigned here, in
// flush order, so that decode can restore write order even though
// concurrent IO workers append frames to the container out of order. The
// chunk also joins the in-flight list in the same critical section, so
// overlay readers see every enqueued-but-unwritten chunk in seq order
// (enqueueActive is serialized per entry by writeMu).
func (e *fileEntry) enqueueActive() {
	c := e.active
	e.mu.Lock()
	e.active = nil
	e.writeChunks++
	c.seq = e.frameSeq
	e.frameSeq++
	e.inflight = append(e.inflight, c)
	e.mu.Unlock()
	e.fs.partials.Add(-1)
	e.fs.stats.chunksFlushed.Add(1)
	c.enqueuedAt = e.fs.monotonic()
	e.fs.enqueue(c)
}

// flushTail enqueues the partially filled chunk, if any (close/fsync path).
func (e *fileEntry) flushTail() {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.flushTailLocked()
}

func (e *fileEntry) flushTailLocked() {
	for _, op := range e.agg.Flush(nil) {
		if op.Kind == chunker.OpFlush {
			e.enqueueActive()
		}
	}
}

// tryFlushTail flushes the partial chunk if the entry's write path is not
// busy; used for buffer-pool pressure reclaim.
func (e *fileEntry) tryFlushTail() {
	if !e.writeMu.TryLock() {
		return
	}
	defer e.writeMu.Unlock()
	e.flushTailLocked()
}

// waitDrained blocks until every enqueued chunk of this file has been
// written by an IO thread ("complete chunk count == write chunk count",
// §IV-C), then returns the sticky error if any. Internal gates (rename,
// truncate, container reset) use it: they must keep refusing after a
// failure, without consuming the one-shot report Sync/Close owe the
// application.
func (e *fileEntry) waitDrained() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.doneChunks < e.writeChunks {
		e.cond.Wait()
	}
	return e.firstErr
}

// drainReport is the Sync/Close drain: wait for every enqueued chunk,
// then take the pending surface error — each backend write failure is
// reported to the application exactly once, by whichever Sync or Close
// drains first, instead of echoing forever from a sticky cell.
func (e *fileEntry) drainReport() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.doneChunks < e.writeChunks {
		e.cond.Wait()
	}
	err := e.pendingErr
	e.pendingErr = nil
	return err
}

// complete is called by IO workers after writing a chunk. The chunk is
// marked done, and the in-flight list is retired strictly from the front
// (flush/seq order): a done chunk whose older sibling is still being
// written stays listed, so an overlay reader keeps applying it *after*
// the older chunk's bytes — dropping it early would let the older
// in-flight overlay shadow this chunk's newer, already-durable data.
// Retirement happens in the same critical section that bumps doneChunks;
// for framed entries the frame index was updated first (under mu, in
// writeFramed), so a retired chunk's bytes are always in the durable
// base. complete returns the retired chunks; the caller must unpin each
// (their pipeline references) outside the lock.
func (e *fileEntry) complete(c *chunk, err error) []*chunk {
	if e.pf != nil {
		// Retirement hands this chunk's extent from the overlay to the
		// durable base, so any prefetched base bytes predate it — including
		// bytes fetched by a job that was scheduled *during* the write
		// (after write()'s invalidate but before the payload was buffered,
		// a window in which the pipeline still looks clean and the
		// generation already looks current). Invalidating here, strictly
		// before the in-flight removal below, closes that window: a reader
		// that plans after retirement finds the cache already empty.
		e.pf.invalidate()
	}
	e.mu.Lock()
	e.doneChunks++
	if err != nil {
		e.failLocked(err)
	}
	c.done = true
	var retired []*chunk
	n := 0
	for n < len(e.inflight) && e.inflight[n].done {
		n++
	}
	if n > 0 {
		retired = append(retired, e.inflight[:n]...)
		e.inflight = append(e.inflight[:0], e.inflight[n:]...)
	}
	e.mu.Unlock()
	e.cond.Broadcast()
	return retired
}

// pathName returns the entry's current table key for use outside locks
// (error messages, probe invalidation); the name changes on rename.
func (e *fileEntry) pathName() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.name
}

// frameExtent computes the logical size and next sequence number of a
// scanned frame index (codec.ScanPrefix/Salvage does the walking).
func frameExtent(frames []codec.FrameInfo) (logical int64, nextSeq uint64) {
	for _, fr := range frames {
		if end := fr.Header.Off + int64(fr.Header.RawLen); end > logical {
			logical = end
		}
		if fr.Header.Seq >= nextSeq {
			nextSeq = fr.Header.Seq + 1
		}
	}
	return logical, nextSeq
}

// addFrameLocked records a completed frame, keeping the index sorted by
// (logical offset, seq) so reads can binary-search it. Sequential
// checkpoint streams append at the end; only overwrites pay a shift.
// Caller holds mu.
func (e *fileEntry) addFrameLocked(fr codec.FrameInfo) {
	if n := int64(fr.Header.RawLen); n > e.maxRawLen {
		e.maxRawLen = n
	}
	i := sort.Search(len(e.frames), func(i int) bool {
		a := e.frames[i].Header
		return a.Off > fr.Header.Off || (a.Off == fr.Header.Off && a.Seq > fr.Header.Seq)
	})
	e.frames = append(e.frames, codec.FrameInfo{})
	copy(e.frames[i+1:], e.frames[i:])
	e.frames[i] = fr
}

// setFrames installs a scanned container index on a fresh entry (not yet
// shared, so no lock needed).
func (e *fileEntry) setFrames(frames []codec.FrameInfo) {
	sort.Slice(frames, func(i, j int) bool {
		a, b := frames[i].Header, frames[j].Header
		return a.Off < b.Off || (a.Off == b.Off && a.Seq < b.Seq)
	})
	e.frames = frames
	for _, fr := range frames {
		if n := int64(fr.Header.RawLen); n > e.maxRawLen {
			e.maxRawLen = n
		}
	}
}

// overlapFrames appends the frames intersecting [off, end) to buf, in
// sequence order. The index is sorted by offset and no raw extent exceeds
// maxRawLen, so a frame overlapping the range must start after
// off-maxRawLen: binary search there and scan forward to end. A read
// rarely touches more than two frames, so a caller's small array as buf
// keeps the call off the heap.
func (e *fileEntry) overlapFrames(buf []codec.FrameInfo, off, end int64) []codec.FrameInfo {
	e.mu.Lock()
	lo := sort.Search(len(e.frames), func(i int) bool {
		return e.frames[i].Header.Off > off-e.maxRawLen
	})
	for i := lo; i < len(e.frames) && e.frames[i].Header.Off < end; i++ {
		fr := e.frames[i]
		// RawLen == 0 skips pad frames (stamped over failed writes).
		if fr.Header.RawLen > 0 && fr.Header.Off+int64(fr.Header.RawLen) > off {
			buf = append(buf, fr)
		}
	}
	e.mu.Unlock()
	slices.SortFunc(buf, func(a, b codec.FrameInfo) int { return cmp.Compare(a.Header.Seq, b.Header.Seq) })
	return buf
}

// overlay is one pinned extent of buffered data to copy over the durable
// base of a read: an in-flight chunk or the active partial chunk. The
// snapshot (start, n) is taken under mu at plan time; buf[:n] is
// append-only and stays valid while the chunk is pinned.
type overlay struct {
	buf   []byte
	start int64
	n     int64
}

// readPlan is a pinned snapshot of the part of a file's write pipeline
// that a read must see: the in-flight chunks in flush (seq) order, then
// the active partial chunk — later overlays shadow earlier ones, and all
// of them shadow the durable base. release must be called when the copy
// is done so the pool can recycle the buffers.
type readPlan struct {
	overlays []overlay
	pinned   []*chunk
}

func (p *readPlan) add(c *chunk, off, end int64) {
	fill := c.fill.Load()
	if fill == 0 || c.start >= end || c.start+fill <= off {
		return
	}
	c.pin()
	p.pinned = append(p.pinned, c)
	p.overlays = append(p.overlays, overlay{buf: c.buf, start: c.start, n: fill})
}

func (p *readPlan) release() {
	for _, c := range p.pinned {
		c.unpin()
	}
}

// planRead snapshots everything a read of [off, end) needs from the
// entry's pipeline in one critical section: the sticky error, the logical
// size, the container flag, whether the pipeline is dirty (the old read
// path would have drained it), and the pinned overlays.
func (e *fileEntry) planRead(off, end int64) (plan readPlan, size int64, framed, dirty bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err = e.firstErr; err != nil {
		return
	}
	size = e.logicalSize
	framed = e.framed
	dirty = e.doneChunks < e.writeChunks
	for _, c := range e.inflight {
		plan.add(c, off, end)
	}
	if c := e.active; c != nil {
		if c.fill.Load() > 0 {
			dirty = true
		}
		plan.add(c, off, end)
	}
	return
}

// readAt serves a positional read with the buffered-read-through overlay
// (read-your-writes without draining the pipeline, cf. §IV-D.1 which
// passes reads through only because checkpoint streams are write-only).
// Precedence, lowest first: the durable base (backend bytes, or decoded
// frames for a container), the in-flight chunks in flush order, the
// active partial chunk. A clean plain file stays pure passthrough.
//
// truncMu serializes reads against truncation: a truncate mutates the
// entry's logical state and the backend bytes non-atomically, and a read
// interleaving the two would plan against the old frame index or size
// while the backend bytes are already gone — surfacing phantom zeros,
// phantom errors, or (worst) old frame headers reinterpreted over a
// rewritten container. Reads take it shared, so they never serialize
// against each other; only the rare truncate excludes them.
//
// stream says the calling handle recognised this read as part of a
// sequential stream; it only matters to read-ahead (prefetcher.readBase
// for a plain file, decodeFrame for a container).
func (e *fileEntry) readAt(p []byte, off int64, stream bool) (int, error) {
	e.truncMu.RLock()
	defer e.truncMu.RUnlock()
	plan, size, framed, dirty, err := e.planRead(off, off+int64(len(p)))
	defer plan.release()
	if err != nil {
		return 0, err
	}
	if dirty {
		e.fs.stats.readDrainsAvoided.Add(1)
	}
	if len(plan.overlays) > 0 {
		e.fs.stats.readsFromBuffer.Add(1)
	}
	if !framed && !dirty && len(plan.overlays) == 0 && e.pf == nil {
		// Clean plain file: seed passthrough, byte-identical semantics.
		// (With read-ahead enabled the generic path below runs instead,
		// so clean sequential restart reads can hit the prefetch cache.)
		return e.backendFile.ReadAt(p, off)
	}
	if off >= size {
		return 0, io.EOF
	}
	short := false
	if off+int64(len(p)) > size {
		p = p[:size-off]
		short = true
	}
	// Skip the base when a single buffered extent covers the whole read
	// (the common read-back-what-I-just-wrote): start applying at the
	// last covering overlay, which shadows everything below it.
	first := 0
	base := true
	for i, ov := range plan.overlays {
		if ov.start <= off && off+int64(len(p)) <= ov.start+ov.n {
			base, first = false, i
		}
	}
	if base {
		if framed {
			err = e.readFramedInto(p, off, stream && !dirty)
		} else if e.pf != nil {
			// Rule 2 of the read pipeline: nothing is fetched into the
			// read-ahead cache while the write pipeline is dirty.
			err = e.pf.readBase(p, off, size, stream && !dirty)
		} else {
			err = e.readPlainInto(p, off)
		}
		if err != nil {
			return 0, err
		}
	}
	for _, ov := range plan.overlays[first:] {
		lo := max(ov.start, off)
		hi := min(ov.start+ov.n, off+int64(len(p)))
		if lo < hi {
			copy(p[lo-off:hi-off], ov.buf[lo-ov.start:hi-ov.start])
		}
	}
	if short {
		return len(p), io.EOF
	}
	return len(p), nil
}

// readPlainInto fills p from the backend at off, reading bytes the
// backend has and zero-filling the rest (buffered-but-unlanded extents
// read as holes until the overlays above patch them in).
func (e *fileEntry) readPlainInto(p []byte, off int64) error {
	n, err := e.backendFile.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return err
	}
	clear(p[n:])
	return nil
}

// readFramedInto fills p from a frame container: zero-fill (holes read as
// zeros, like sparse files), then overlay every overlapping frame's
// decoded bytes in sequence order so later writes shadow earlier ones.
// stream is readAt's, less a dirty pipeline (rule 2 of the read pipeline).
func (e *fileEntry) readFramedInto(p []byte, off int64, stream bool) error {
	var few [4]codec.FrameInfo
	overlap := e.overlapFrames(few[:0], off, off+int64(len(p)))
	if !(len(overlap) == 1 && overlap[0].Header.Off <= off &&
		overlap[0].Header.Off+int64(overlap[0].Header.RawLen) >= off+int64(len(p))) {
		// Only zero-fill when one frame doesn't cover the whole range —
		// the common sequential chunk read skips the memset entirely.
		clear(p)
	}
	for _, fr := range overlap {
		pr, err := e.decodeFrame(fr, stream)
		if err != nil {
			return err
		}
		lo := max(fr.Header.Off, off)
		hi := min(fr.Header.Off+int64(fr.Header.RawLen), off+int64(len(p)))
		copy(p[lo-off:hi-off], pr.buf[lo-fr.Header.Off:hi-fr.Header.Off])
		pr.c.unpin()
	}
	return nil
}

// decodeFrame returns a frame's decoded bytes, pinned for the caller's
// copy (the caller unpins). It serves from the one-frame cache when a
// previous read hit the same frame, then from the read-ahead cache, and
// otherwise decodes outside any lock (concurrent readers of different
// frames don't serialize behind one inflater); either way the frame ends
// up in the one-frame cache. A stream plans its read-ahead here, as it
// enters a frame: the workers then inflate the next frames while this one
// is decoded and copied, however few calls the stream reads it in.
func (e *fileEntry) decodeFrame(fr codec.FrameInfo, stream bool) (*prefetched, error) {
	e.decMu.Lock()
	if pr := e.dec; pr != nil && e.decPos == fr.Pos {
		pr.c.pin() // the cache's reference is held under decMu, so refs > 0
		e.decMu.Unlock()
		return pr, nil
	}
	gen := e.decGen
	e.decMu.Unlock()
	// The stream leaves the cached frame: its buffer goes back first, so
	// the next decode can take it.
	e.dropDecoded(false)
	var pr *prefetched
	if e.pf != nil {
		pr = e.pf.takeFrame(fr.Pos) // a worker may have decoded it already
		if stream {
			e.pf.schedule(fr.Header.Off+1, obs.SpanContext{})
		}
	}
	if pr == nil {
		var err error
		if pr, err = e.fs.fetchFrame(e.backendFile, fr); err != nil {
			return nil, fmt.Errorf("core: %s: %w", e.pathName(), err)
		}
	}
	// The frame's read-path reference moves to the one-frame cache; the
	// caller copies under a pin of its own. If the container was reset
	// since gen was loaded the frame is not cached — positions restart
	// from zero after a truncate, so pos alone would alias old and new
	// frames — and only that pin remains.
	pr.c.pin()
	old := pr
	e.decMu.Lock()
	if e.decGen == gen {
		old, e.dec, e.decPos = e.dec, pr, fr.Pos
	}
	e.decMu.Unlock()
	if old != nil {
		e.fs.putReadChunk(old.c)
	}
	return pr, nil
}

// dropDecoded empties the one-frame decode cache and gives its buffer back
// (a reader still copying from it holds a pin; the last unpin recycles).
// invalidate says the container's frame positions are about to mean
// something else (reset, last close): the generation bump keeps a decode
// that is under way from publishing a frame of the old layout.
func (e *fileEntry) dropDecoded(invalidate bool) {
	e.decMu.Lock()
	old := e.dec
	e.dec = nil
	if invalidate {
		e.decGen++
	}
	e.decMu.Unlock()
	if old != nil {
		e.fs.putReadChunk(old.c)
	}
}

// truncate resizes a drained entry. Raw entries pass through. A frame
// container supports only reset to zero (the checkpoint rewrite case) and
// the no-op truncate to the current size: cutting a compressed log to an
// arbitrary logical length would require rewriting frames, which no
// checkpoint workload needs.
func (e *fileEntry) truncate(size int64) error {
	e.truncMu.Lock()
	defer e.truncMu.Unlock()
	if e.pf != nil {
		// Any truncate outcome (shrink, reset, extend) can change what the
		// base reads as; drop read-ahead before the backend changes.
		e.pf.invalidate()
	}
	e.mu.Lock()
	framed, logical := e.framed, e.logicalSize
	name := e.name
	e.mu.Unlock()
	if framed {
		switch act, err := containerTruncateAction(name, size, logical); {
		case err != nil:
			return err
		case act == truncNoop:
			return nil
		case act == truncReset:
			return e.resetContainer()
		default:
			// Extension (ftruncate-then-write preallocation): persist the
			// new logical size as a zero-extent marker frame, so it
			// survives remount; the extended range reads as zeros like
			// any container hole.
			return e.extendContainer(size)
		}
	}
	if size == 0 && e.fs.opts.framedWrites() {
		// Resetting a plain file under a codec mount starts a fresh
		// container: there is no plain middle left to protect, so the
		// rewrite gets compressed exactly like a Trunc open would.
		return e.resetContainer()
	}
	if err := e.backendFile.Truncate(size); err != nil {
		return err
	}
	e.mu.Lock()
	e.logicalSize = size
	e.mu.Unlock()
	return nil
}

// resetContainer truncates the backend to zero and resets the entry's
// container state. Concurrent writers are excluded via writeMu: without
// it, a racing write could reserve the stale append offset and land a
// frame past the truncation point, leaving a hole at offset 0 that
// silently declassifies the file as plain on the next open.
func (e *fileEntry) resetContainer() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.flushTailLocked()
	if err := e.waitDrained(); err != nil {
		return err
	}
	// Readers are excluded for the whole reset by truncMu (the caller,
	// truncate, holds it) — that exclusion, not the generation, is what
	// prevents a read from planning against pre-reset frames and then
	// touching post-truncate bytes. Clearing the one-frame decode cache
	// is still required (a post-reset frame can land at a cached pos and
	// alias it), and the generation bump keeps any decode that is *not*
	// under truncMu — a prefetch job's publish racing this reset — from
	// repopulating caches with pre-reset data.
	e.dropDecoded(true)
	if err := e.backendFile.Truncate(0); err != nil {
		return err
	}
	e.mu.Lock()
	// Classification follows the mount: a raw mount resetting a
	// container demotes it to plain (matching what a Trunc open
	// produces), a codec mount starts a fresh container.
	e.framed = e.fs.opts.framedWrites()
	e.frames = nil
	e.maxRawLen = 0
	e.appendOff = 0
	e.logicalSize = 0
	e.mu.Unlock()
	return nil
}

// truncAction classifies a truncate of a frame container.
type truncAction int

const (
	truncNoop   truncAction = iota // size equals the logical size
	truncReset                     // size zero: reset the container
	truncExtend                    // grow: persist via a marker frame
)

// containerTruncateAction is the single decision point for the container
// truncate contract, shared by open entries and the closed-file path so
// the rules cannot drift.
func containerTruncateAction(name string, size, logical int64) (truncAction, error) {
	switch {
	case size == logical:
		return truncNoop, nil
	case size == 0:
		return truncReset, nil
	case size > logical:
		return truncExtend, nil
	default:
		return 0, fmt.Errorf("core: truncate %s to %d: frame container supports only extension, truncate to 0, or current size: %w",
			name, size, vfs.ErrInvalid)
	}
}

// extendContainer appends a zero-extent marker frame at the new logical
// end, persisting an extending truncate across remounts. Synchronous:
// preallocation is rare and must be visible before returning.
func (e *fileEntry) extendContainer(size int64) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.flushTailLocked()
	if err := e.waitDrained(); err != nil {
		return err
	}
	frame := make([]byte, codec.HeaderSize)
	e.mu.Lock()
	if size <= e.logicalSize {
		e.mu.Unlock()
		return nil // a concurrent write already grew past it
	}
	pos := e.appendOff
	e.appendOff += codec.HeaderSize
	hdr := codec.Header{Version: codec.Version, Codec: codec.RawID, Seq: e.frameSeq, Off: size, RawLen: 0, EncLen: 0}
	e.frameSeq++
	e.mu.Unlock()
	codec.PutHeader(frame, hdr)
	if _, err := e.backendFile.WriteAt(frame, pos); err != nil {
		return err
	}
	e.mu.Lock()
	e.addFrameLocked(codec.FrameInfo{Header: hdr, Pos: pos})
	if size > e.logicalSize {
		e.logicalSize = size
	}
	e.mu.Unlock()
	return nil
}
