package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crfs/internal/codec"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// ErrDestinationOpen reports a Rename whose destination is an open file:
// re-keying an open entry under a live handle is rejected (see
// renameLocked). Callers that stage-and-rename (crfsd's PUT commit) test
// for it with errors.Is and retry once the reader closes.
var ErrDestinationOpen = errors.New("rename destination is open")

// FS is a CRFS mount: a vfs.FS stacked over a backend vfs.FS.
type FS struct {
	backend vfs.FS
	opts    Options
	pool    *bufferPool
	queue   chan *chunk
	// prefetchq feeds read-ahead jobs to the same IO workers that drain
	// queue; workers prefer write chunks, and producers never block on it
	// (a full queue drops the job — read-ahead is best-effort).
	prefetchq chan prefetchJob
	encBufs   sync.Pool // *[]byte frame encode scratch, one per in-flight encode
	// decBufs is the free list of buffers frames are decoded into on the
	// read path (fetchFrame). It keeps idle what one stream's read-ahead
	// can hold — ReadAhead frames and the one the stream is inside.
	decBufs *bufferPool

	mu     sync.Mutex
	files  map[string]*fileEntry // open-file hash table, keyed by clean path
	closed bool
	// live is every entry with an open handle: the table's entries plus
	// those Remove or Unmount unlinked from it that have not seen their
	// last close. It is what pool reclaim walks (an unlinked entry still
	// pins chunks) and what callTotals sums; closedCalls is the fold of the
	// shards of entries that left it. raShare is the read-ahead share
	// that follows from len(live), kept for readers that hold no fs.mu.
	live        map[*fileEntry]struct{}
	closedCalls *callShard
	raShare     atomic.Int32
	workers     sync.WaitGroup

	stats statCounters

	// partials counts entries holding a partly filled active chunk and
	// raChunks the pool chunks read-ahead holds (cached or being fetched):
	// the two kinds of chunk reclaimPool can free, counted so a blocked
	// writer knows without walking the table whether a walk is worth it.
	partials atomic.Int32
	raChunks atomic.Int32

	// tracer records pipeline spans (Options.Tracer, defaulting to
	// obs.Default); hist holds the always-on per-stage histograms.
	tracer *obs.Tracer
	hist   *fsHistograms

	// epoch is the mount time. monotonic is the clock of sampled call
	// latencies and queue dwell: sinceMount, set at Mount (a test may
	// substitute a counting clock before the first IO) and only read
	// after. (With both fields FS stays in the 512-byte size class, whose
	// slots are cache-line aligned; at 472 bytes it fell into the 480-byte
	// class and the daemon benchmark workloads spent ~5 % more CPU — see
	// EXPERIMENTS.md.)
	epoch     time.Time
	monotonic func() int64
}

// sinceMount returns nanoseconds since the mount plus one. time.Since
// reads the monotonic clock only, where time.Now().UnixNano() is the wall
// clock, which an NTP step or a VM resume moves; the one keeps the clock
// from reading 0 at the mount instant, so a zero enqueue time means "not
// stamped".
func (fs *FS) sinceMount() int64 { return int64(time.Since(fs.epoch)) + 1 }

// Mount stacks CRFS over backend with the given options.
func Mount(backend vfs.FS, opts Options) (*FS, error) {
	if backend == nil {
		return nil, fmt.Errorf("core: nil backend: %w", errInvalidOptions)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	fs := &FS{
		backend: backend,
		opts:    opts,
		files:   make(map[string]*fileEntry),
		tracer:  opts.Tracer,
		hist:    newFSHistograms(),
		epoch:   time.Now(),

		live:        make(map[*fileEntry]struct{}),
		closedCalls: newCallShard(),
	}
	fs.monotonic = fs.sinceMount
	if fs.tracer == nil {
		fs.tracer = obs.Default
	}
	fs.pool = newBufferPool(opts.BufferPoolSize, opts.ChunkSize, fs.reclaimPool)
	fs.decBufs = newFreeList(opts.ReadAhead+1, opts.ChunkSize)
	fs.liveChangedLocked() // nothing is open, and nothing else can see fs yet
	fs.encBufs.New = func() any {
		b := make([]byte, 0, opts.ChunkSize+codec.HeaderSize)
		return &b
	}
	fs.queue = make(chan *chunk, fs.pool.total)
	fs.prefetchq = make(chan prefetchJob, fs.pool.total+opts.ReadAhead)
	fs.workers.Add(opts.IOThreads)
	for i := 0; i < opts.IOThreads; i++ {
		go fs.ioWorker()
	}
	return fs, nil
}

// Options returns the effective mount options (defaults applied).
func (fs *FS) Options() Options { return fs.opts }

// Backend returns the filesystem CRFS is mounted over.
func (fs *FS) Backend() vfs.FS { return fs.backend }

// ioWorker drains the work queue: fetch a chunk, write it to the backend
// file at its tagged offset, mark completion, recycle the buffer (§IV-B,
// "Work Queue and IO Throttling"). Framed entries take the codec path:
// encode, then append the frame — the expensive encode runs concurrently
// across workers, exactly like the backend writes it precedes. The same
// workers also drain the read-ahead queue (restart prefetch); the
// non-blocking first select gives write chunks strict priority, so a
// checkpoint stream is never stalled behind restart read-ahead.
func (fs *FS) ioWorker() {
	defer fs.workers.Done()
	// Local copies are nil-ed as each queue closes: a worker exits only
	// once both tiers are closed *and* drained. A nil channel never fires
	// in a select, which is exactly the drop-the-tier semantics.
	queue, prefetchq := fs.queue, fs.prefetchq
	for queue != nil || prefetchq != nil {
		if queue != nil {
			select {
			case c, ok := <-queue:
				if ok {
					fs.writeChunk(c)
				} else {
					queue = nil
				}
				continue
			default:
			}
		}
		// No write chunk waiting: block until either live tier has work.
		select {
		case c, ok := <-queue:
			if ok {
				fs.writeChunk(c)
			} else {
				queue = nil
			}
		case j, ok := <-prefetchq:
			if ok {
				fs.runPrefetch(j)
			} else {
				prefetchq = nil
			}
		}
	}
}

// writeChunk lands one aggregation chunk on the backend and retires it.
func (fs *FS) writeChunk(c *chunk) {
	fs.stats.queueDepth.Add(-1)
	if c.enqueuedAt != 0 {
		fs.hist.queueWaitWrite.Observe(fs.monotonic() - c.enqueuedAt)
	}
	var sp obs.Span
	if fs.tracer.Enabled() {
		sp = fs.tracer.StartChild("crfs.chunk.write", c.ctx)
		sp.AttrInt("seq", int64(c.seq))
		sp.AttrInt("bytes", c.fill.Load())
		defer sp.End()
	}
	entry := c.entry
	fill := c.fill.Load()
	var err error
	if entry.framed {
		err = fs.writeFramed(entry, c, sp.Context())
	} else {
		t0 := time.Now()
		_, err = entry.backendFile.WriteAt(c.buf[:fill], c.start)
		fs.hist.backendWrite.Observe(int64(time.Since(t0)))
		fs.stats.backendWrites.Add(1)
		fs.stats.backendBytes.Add(fill)
	}
	if err != nil {
		fs.stats.failedChunks.Add(1)
	}
	// Retire what this completion unblocks (in-flight prefix of done
	// chunks), then drop those pipeline references; a reader still
	// copying from a chunk holds a pin, and the last unpin recycles
	// the buffer.
	for _, rc := range entry.complete(c, err) {
		rc.unpin()
	}
}

// writeFramed encodes one chunk as a frame and appends it to the entry's
// container. Encoding happens outside any lock; only the append-offset
// reservation and the index update are serialized, so workers overlap
// compression with each other and with backend IO.
func (fs *FS) writeFramed(e *fileEntry, c *chunk, parent obs.SpanContext) error {
	bp := fs.encBufs.Get().(*[]byte)
	defer fs.encBufs.Put(bp)
	fill := c.fill.Load()
	var encSp obs.Span
	if fs.tracer.Enabled() {
		encSp = fs.tracer.StartChild("crfs.encode", parent)
	}
	encT0 := time.Now()
	frame, hdr, err := codec.EncodeFrame(fs.opts.Codec, c.seq, c.start, c.buf[:fill], (*bp)[:0])
	fs.hist.encode.Observe(int64(time.Since(encT0)))
	if encSp.Active() {
		encSp.AttrInt("raw", fill)
		encSp.AttrInt("enc", int64(len(frame)))
		encSp.End()
	}
	if cap(frame) > cap(*bp) {
		*bp = frame // keep the grown buffer for the next encode
	}
	if err != nil {
		return err
	}
	e.mu.Lock()
	pos := e.appendOff
	e.appendOff += int64(len(frame))
	e.mu.Unlock()
	var wrSp obs.Span
	if fs.tracer.Enabled() {
		wrSp = fs.tracer.StartChild("crfs.backend.write", parent)
		wrSp.AttrInt("bytes", int64(len(frame)))
	}
	wrT0 := time.Now()
	_, werr := e.backendFile.WriteAt(frame, pos)
	fs.hist.backendWrite.Observe(int64(time.Since(wrT0)))
	fs.hist.frameBytes.Observe(int64(len(frame)))
	wrSp.End()
	fs.stats.backendWrites.Add(1)
	fs.stats.backendBytes.Add(int64(len(frame)))
	fs.stats.codecBytesIn.Add(fill)
	fs.stats.codecBytesOut.Add(int64(len(frame)))
	fs.stats.frames.Add(1)
	if hdr.Codec == codec.RawID {
		fs.stats.rawFrames.Add(1)
	}
	if werr != nil {
		// Best effort: stamp a zero-extent pad frame over the reserved
		// range so one failed chunk write doesn't leave an unscannable
		// gap that loses every other frame of the container. The chunk's
		// data is still lost and the sticky error still surfaces at
		// close/fsync; if even the pad write fails the backend is gone
		// anyway.
		pad := make([]byte, codec.HeaderSize)
		codec.PutHeader(pad, codec.Header{
			Codec: codec.RawID, Seq: c.seq, Off: c.start,
			RawLen: 0, EncLen: uint32(len(frame) - codec.HeaderSize),
		})
		if _, perr := e.backendFile.WriteAt(pad, pos); perr == nil && len(frame) > codec.HeaderSize {
			// Materialize the reserved range so a scan doesn't see the
			// pad's extent overrun the container.
			e.backendFile.WriteAt([]byte{0}, pos+int64(len(frame))-1)
		}
		return werr
	}
	e.mu.Lock()
	e.addFrameLocked(codec.FrameInfo{Header: hdr, Pos: pos})
	e.mu.Unlock()
	return nil
}

// reclaimPool is what a writer blocked on the buffer pool runs on every
// reclaim tick. It does only what can free a chunk: it flushes other
// files' partial chunks (skip is the caller, whose writeMu is held) when
// any exist, and takes back read-ahead when read-ahead holds chunks —
// from each open file only what competes unfairly (prefetcher.reclaim),
// and everything only when read-ahead holds the whole pool, the one state
// in which no write chunk is on its way back to the writer. When neither
// kind of chunk exists the tick is two atomic loads, and the writer is
// simply waiting for an IO worker.
func (fs *FS) reclaimPool(skip *fileEntry) {
	flush, readAhead := fs.partials.Load() > 0, fs.raChunks.Load()
	if !flush && readAhead == 0 {
		return
	}
	fs.mu.Lock()
	entries := make([]*fileEntry, 0, len(fs.live))
	for e := range fs.live {
		entries = append(entries, e)
	}
	fs.mu.Unlock()
	share, all := fs.readAheadShare(), int(readAhead) >= fs.pool.total
	for _, e := range entries {
		if flush && e != skip {
			e.tryFlushTail()
		}
		if readAhead > 0 && e.pf != nil {
			e.pf.reclaim(share, all)
		}
	}
}

// getReadChunk takes a pool chunk for a read-ahead block without blocking;
// putReadChunk drops the reference a chunk of the read path came with — a
// block's pool chunk or a decoded frame's buffer (nil, a frame on the
// heap, has none). Together they keep FS.raChunks, the pool chunks
// reclaimPool can ask read-ahead for.
func (fs *FS) getReadChunk() *chunk {
	c := fs.pool.tryGet()
	if c != nil {
		fs.raChunks.Add(1)
	}
	return c
}

func (fs *FS) putReadChunk(c *chunk) {
	if c == nil {
		return
	}
	if c.pool == fs.pool {
		fs.raChunks.Add(-1)
	}
	c.unpin()
}

// fetchFrame reads one frame's payload through bf into the mount's encode
// scratch and decodes it into a buffer from the decode free list, whose
// reference the returned frame holds (putReadChunk). A buffer is allocated
// only when none is idle — more frames are decoded and not yet read than
// the list keeps — and for a frame larger than a chunk (one written by a
// mount with bigger chunks), which gets a heap slice of its own; both
// count in Stats.DecodeHeapFallbacks. Called with no locks held.
func (fs *FS) fetchFrame(bf backendHandle, fr codec.FrameInfo) (*prefetched, error) {
	bp := fs.encBufs.Get().(*[]byte)
	defer fs.encBufs.Put(bp)
	enc := slices.Grow((*bp)[:0], int(fr.Header.EncLen))[:fr.Header.EncLen]
	*bp = enc // a frame from a mount with bigger chunks grew it: keep that
	if _, err := bf.ReadAt(enc, fr.Pos+codec.HeaderSize); err != nil {
		return nil, fmt.Errorf("frame payload at %d: %w", fr.Pos, err)
	}
	pr := &prefetched{start: fr.Header.Off}
	var dst []byte
	fresh := true
	if int64(fr.Header.RawLen) <= fs.opts.ChunkSize {
		pr.c, fresh = fs.decBufs.take()
		dst = pr.c.buf[:0]
	}
	if fresh {
		fs.stats.decodeHeapFallbacks.Add(1)
	}
	var err error
	pr.buf, err = codec.DecodeFrame(fr.Header, enc, dst)
	fs.stats.checksumResult(fr.Header.Version, err)
	if err != nil {
		fs.putReadChunk(pr.c)
		return nil, err
	}
	return pr, nil
}

// readAheadShare is how many pool chunks one entry's read-ahead may hold,
// cached and being fetched together: an even share of the pool among the
// entries with an open handle, and never less than one.
func (fs *FS) readAheadShare() int { return int(fs.raShare.Load()) }

// liveChangedLocked recomputes the share after fs.live gained or lost an
// entry. Caller holds fs.mu.
func (fs *FS) liveChangedLocked() {
	fs.raShare.Store(int32(max(1, fs.pool.total/max(1, len(fs.live)))))
}

// enqueue hands a filled chunk to the work queue.
func (fs *FS) enqueue(c *chunk) {
	fs.stats.queueDepth.Add(1)
	fs.queue <- c
}

func (fs *FS) checkOpen() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return fmt.Errorf("core: filesystem unmounted: %w", vfs.ErrClosed)
	}
	return nil
}

// Open implements vfs.FS. Every open — including read-only — is routed
// through the open-file table so all handles of a path share one entry:
// writable handles share a single aggregation pipeline (§IV-A), and
// read-only handles of an already-open path serve the buffered-read-
// through overlay from that pipeline instead of reading stale backend
// bytes. The table entry (not the open) is what costs: a read-only open
// of a closed file pays one backend open plus, when the file could be a
// frame container, the header-only index scan.
func (fs *FS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	if err := fs.checkOpen(); err != nil {
		return nil, err
	}
	key := vfs.Clean(name)

	trunc := flag&vfs.Trunc != 0 && flag.Writable()

	fs.mu.Lock()
	if entry, ok := fs.files[key]; ok {
		// File already open: share the entry (§IV-A "If the file is
		// already opened, the reference counter ... is incremented").
		if trunc {
			fs.mu.Unlock()
			return nil, fmt.Errorf("core: open %s: truncate of file with active writers unsupported: %w", key, vfs.ErrInvalid)
		}
		entry.mu.Lock()
		entry.refs++
		entry.mu.Unlock()
		fs.mu.Unlock()
		fs.stats.opens.Add(1)
		return &file{fs: fs, entry: entry, name: key, flag: flag}, nil
	}
	fs.mu.Unlock()

	// Open the backend file outside fs.mu: backend opens may be slow.
	// Trunc is stripped and applied only after winning the table race
	// below — truncating in the backend open would destroy the state of
	// a concurrently registered entry before the re-check can reject us.
	backendFlag := flag
	if trunc {
		backendFlag &^= vfs.Trunc
	}
	bf, err := fs.backend.Open(key, backendFlag)
	if err != nil {
		return nil, err
	}
	info, err := bf.Stat()
	if err != nil {
		bf.Close()
		return nil, err
	}

	entry := newFileEntry(fs, key, bf, fs.opts.ChunkSize)
	entry.logicalSize = info.Size
	var indexErr error
	if trunc {
		// The content is about to be discarded; no point scanning it.
		if fs.opts.framedWrites() {
			entry.framed = true
		}
	} else {
		indexErr = fs.indexEntry(entry, key, flag, info.Size)
	}
	// An index error is fatal only if we are truly first: a racing opener
	// may be appending frames out of order right now (reserved ranges are
	// transient holes), making a concurrent scan fail spuriously — in
	// that case fall through and share the live entry instead.

	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		bf.Close()
		return nil, fmt.Errorf("core: filesystem unmounted: %w", vfs.ErrClosed)
	}
	if entry, ok := fs.files[key]; ok {
		// Lost a race with another opener; share theirs, with the same
		// truncate guard as the first-pass check. The backend was opened
		// without Trunc, so the live entry's state is undamaged.
		if trunc {
			fs.mu.Unlock()
			bf.Close()
			return nil, fmt.Errorf("core: open %s: truncate of file with active writers unsupported: %w", key, vfs.ErrInvalid)
		}
		entry.mu.Lock()
		entry.refs++
		entry.mu.Unlock()
		fs.mu.Unlock()
		bf.Close()
		fs.stats.opens.Add(1)
		return &file{fs: fs, entry: entry, name: key, flag: flag}, nil
	}
	if indexErr != nil {
		fs.mu.Unlock()
		bf.Close()
		return nil, indexErr
	}
	if entry.pendingRepair >= 0 {
		// RepairOnOpen: cut the salvaged container's torn tail off the
		// backend file, while the entry is still private and fs.mu
		// excludes both sharers and re-probes — the same window the
		// deferred Trunc below uses. The cost is one backend ftruncate on
		// the rare damaged-container open.
		if err := fs.backend.Truncate(key, entry.pendingRepair); err != nil {
			fs.mu.Unlock()
			bf.Close()
			return nil, fmt.Errorf("core: open %s: repair: %w", key, err)
		}
		entry.pendingRepair = -1
		fs.stats.containersRepaired.Add(1)
	}
	if trunc {
		// Apply the deferred truncation while the entry is still private
		// and fs.mu excludes sharers: published-then-truncated would let
		// a racing opener's acknowledged writes be wiped by the reset.
		// The entry has no frames, cache or read-ahead yet, so the reset
		// is one backend ftruncate and its size; no entry lock is taken.
		if err := bf.Truncate(0); err != nil {
			fs.mu.Unlock()
			bf.Close()
			return nil, err
		}
		entry.logicalSize = 0
	}
	entry.refs = 1
	fs.files[key] = entry
	fs.live[entry] = struct{}{}
	fs.liveChangedLocked()
	fs.mu.Unlock()
	fs.stats.opens.Add(1)
	return &file{fs: fs, entry: entry, name: key, flag: flag}, nil
}

// indexEntry decides whether a fresh entry is a frame container and, if
// so, builds its index. A new or empty file under a non-raw codec starts
// a fresh container; an existing file is sniffed for the frame magic so
// that containers decode transparently under any mount, while existing
// plain files always stay passthrough — a raw mount writes bytes
// identical to a codec-less build, and a codec mount never frames into
// the middle of a plain file.
//
// A container whose tail fails to parse — the signature of a crash
// mid-append — is salvaged instead of refused: the entry serves the
// longest intact frame prefix, new frames append right after it, and
// with Options.RepairOnOpen the backend file is truncated to the prefix
// once the entry wins the table race (see Open).
func (fs *FS) indexEntry(entry *fileEntry, key string, flag vfs.OpenFlag, size int64) error {
	if size < codec.HeaderSize {
		if size == 0 && fs.opts.framedWrites() {
			entry.framed = true
		}
		return nil
	}
	// Sniff through the entry's own handle when it can read; a
	// write-only open sniffs through a temporary read handle.
	r := entry.backendFile
	if !flag.Readable() {
		tmp, err := fs.backend.Open(key, vfs.ReadOnly)
		if err != nil {
			if fs.opts.framedWrites() {
				return fmt.Errorf("core: open %s: cannot sniff frame container: %w", key, err)
			}
			return nil // raw mount, unreadable: keep seed passthrough
		}
		defer tmp.Close()
		r = tmp
	}
	probe, perr := probeContainer(r, size)
	if perr != nil {
		// Could not read the prefix at all: refuse rather than guess —
		// writing plain bytes into what may be a container would corrupt
		// it, and a read-only open would misreport sizes.
		return fmt.Errorf("core: open %s: sniff: %w", key, perr)
	}
	for attempt := 0; probe.salvaged && attempt < 3; attempt++ {
		// A salvage verdict must not come from a probe that raced another
		// writer (a closing entry's tail landing, a direct backend write):
		// transient holes look exactly like a torn tail, and acting on the
		// stale probe would hide — or with RepairOnOpen, destroy — frames
		// that are about to be durable. Only a verdict confirmed by a
		// stable backend size stands; a file that keeps churning refuses
		// the open rather than guess.
		after, serr := fs.backend.Stat(key)
		if serr != nil {
			return fmt.Errorf("core: open %s: sniff: %w", key, serr)
		}
		if after.Size == size {
			break
		}
		size = after.Size
		if probe, perr = probeContainer(r, size); perr != nil {
			return fmt.Errorf("core: open %s: sniff: %w", key, perr)
		}
		if probe.salvaged && attempt == 2 {
			return fmt.Errorf("core: open %s: torn container changing underfoot: %w", key, codec.ErrCorrupt)
		}
	}
	if probe.sniffed {
		fs.stats.containersScanned.Add(1)
	}
	if !probe.ok {
		// Magic mismatch, or matched but nothing salvageable behind it.
		// For reads, failure demotes the file to plain passthrough: a
		// plain file that merely begins with the magic bytes must stay
		// readable (seed behavior), at the price that a damaged
		// container reads back as its encoded stream — a state
		// application checksums catch. On codec mounts, a *writable*
		// open of such a file is refused instead: plain writes would
		// land over what may still be container bytes and compound the
		// damage (truncate/Trunc rewrites remain available for
		// recovery). Raw mounts keep full seed passthrough — they
		// promise byte-identical behavior, including for plain files
		// that merely begin with the magic.
		if probe.sniffed && flag.Writable() && fs.opts.framedWrites() {
			return fmt.Errorf("core: open %s: damaged frame container (writable open refused; truncate to rewrite): %w",
				key, codec.ErrCorrupt)
		}
		return nil
	}
	entry.framed = true
	entry.setFrames(probe.frames)
	entry.logicalSize = probe.logical
	entry.appendOff = size
	entry.frameSeq = probe.nextSeq
	if probe.salvaged {
		// Appends land immediately after the intact prefix, overwriting
		// the junk, so the container stays a parseable prefix even if the
		// junk is never repaired away.
		entry.appendOff = probe.report.IntactBytes
		fs.stats.containersSalvaged.Add(1)
		fs.stats.salvageFramesDropped.Add(int64(probe.report.FramesDropped))
		fs.stats.salvageBytesTruncated.Add(probe.report.TruncatedBytes)
		fs.stats.checksumVerified.Add(int64(probe.report.ChecksumVerified))
		fs.stats.checksumSkipped.Add(int64(probe.report.ChecksumSkipped))
		fs.stats.checksumFailed.Add(int64(probe.report.ChecksumFailures))
		if fs.opts.RepairOnOpen {
			entry.pendingRepair = probe.report.IntactBytes
		}
	}
	return nil
}

// containerProbe is the result of probing a file for a frame container.
type containerProbe struct {
	frames   []codec.FrameInfo
	logical  int64
	nextSeq  uint64
	sniffed  bool // the magic matched
	ok       bool // a (possibly salvaged) container index was built
	salvaged bool // the tail was torn; frames is the intact prefix
	report   codec.SalvageReport
}

// probeContainer reads a file's prefix and, when the frame magic
// matches, parses and scans the index. A scan failure triggers salvage:
// a container with at least one intact frame — or a parseable first
// header, the signature of a brand-new container torn inside its first
// frame — is served from its intact prefix rather than demoted. err
// reports that the prefix could not be read at all (an IO failure,
// distinct from a mismatch — the caller must not guess
// plain-vs-container in that case). Open, Stat, and Truncate all route
// through this single probe so classification policy cannot drift
// between them.
func probeContainer(r backendHandle, size int64) (containerProbe, error) {
	var p containerProbe
	if size < codec.HeaderSize {
		return p, nil
	}
	hdr := make([]byte, codec.HeaderSize)
	if _, rerr := r.ReadAt(hdr, 0); rerr != nil {
		return p, rerr
	}
	if !codec.Sniff(hdr) {
		return p, nil
	}
	p.sniffed = true
	if frames, _, stopErr := codec.ScanPrefix(r, size); stopErr == nil {
		p.frames, p.ok = frames, true
		p.logical, p.nextSeq = frameExtent(frames)
		return p, nil
	}
	frames, report, err := codec.Salvage(r, size)
	if err != nil || (len(frames) == 0 && !report.FirstHeaderValid) {
		// Unreadable mid-scan, or nothing frame-like beyond the magic
		// bytes: keep the seed demote-to-plain policy. (A transient read
		// failure must not salvage-truncate a healthy container, and a
		// plain file starting with "CRFC" must stay readable.)
		return p, nil
	}
	p.frames, p.ok, p.salvaged, p.report = frames, true, true, report
	p.logical, p.nextSeq = frameExtent(frames)
	return p, nil
}

// releaseEntry drops one handle's reference and, on the last close,
// unlinks the entry and closes the backend handle. Whether this close is
// the last is decided under fs.mu, the lock Open shares entries under: an
// Open that finds the entry in the table therefore finds it with a
// reference that is still counted, never one whose releaser is already on
// its way to close the backend handle (the last-close/open race behind
// the TestConcurrentClientsSharedNames flake). The table delete is
// guarded by identity: a Remove may have evicted the entry already, and a
// later Open may have installed a fresh entry under the same path — that
// entry must not be torn down by this close.
func (fs *FS) releaseEntry(entry *fileEntry) error {
	fs.mu.Lock()
	entry.mu.Lock()
	entry.refs--
	last := entry.refs == 0
	name := entry.name
	if last {
		if fs.files[name] == entry {
			delete(fs.files, name)
		}
		delete(fs.live, entry)
		fs.liveChangedLocked()
		fs.closedCalls.merge(entry.calls)
	}
	entry.mu.Unlock()
	fs.mu.Unlock()
	if !last {
		return nil
	}
	// Return the buffers the read path holds before the backend handle
	// goes away; in-flight jobs die on the generation bump.
	entry.dropDecoded(true)
	if entry.pf != nil {
		entry.pf.invalidate()
	}
	return entry.backendFile.Close()
}

// Mkdir implements vfs.FS (passthrough, §IV-D.3).
func (fs *FS) Mkdir(name string) error {
	if err := fs.checkOpen(); err != nil {
		return err
	}
	return fs.backend.Mkdir(name)
}

// MkdirAll implements vfs.FS (passthrough).
func (fs *FS) MkdirAll(name string) error {
	if err := fs.checkOpen(); err != nil {
		return err
	}
	return fs.backend.MkdirAll(name)
}

// Remove implements vfs.FS. Removing an open path evicts its entry from
// the open-file table (a later Open of the same name must not resurrect
// the removed file by sharing the old handle); existing handles keep
// working against the detached backend handle until their last close,
// like POSIX unlink of an open file, backend permitting.
func (fs *FS) Remove(name string) error {
	if err := fs.checkOpen(); err != nil {
		return err
	}
	key := vfs.Clean(name)
	fs.mu.Lock()
	entry, open := fs.files[key]
	if open {
		delete(fs.files, key)
	}
	fs.mu.Unlock()
	// The backend remove runs outside fs.mu (it may be a slow network
	// round-trip, and Opens must not stall behind it). The eviction-first
	// order is safe either way: a racing Open re-creates the file from
	// the backend's live state.
	err := fs.backend.Remove(name)
	if err != nil && open {
		// Backend refused; the path still exists, so restore the entry —
		// unless its last handle closed while we were evicted, in which
		// case its backend handle is already closed and reinstalling it
		// would hand future opens a dead entry.
		fs.mu.Lock()
		entry.mu.Lock()
		if _, exists := fs.files[key]; !exists && entry.refs > 0 {
			fs.files[key] = entry
		}
		entry.mu.Unlock()
		fs.mu.Unlock()
	}
	return err
}

// Rename implements vfs.FS. Renaming a file with buffered writes first
// drains it so no chunk lands under the old name on backends whose
// handles do not follow the rename; the source's open-file table entry is
// then re-keyed under the new name, so handles keep working and a later
// Open of either name resolves correctly. Renaming over a path that is
// open is rejected: the destination's handles would keep serving the
// overwritten file under a name that now means something else.
func (fs *FS) Rename(oldName, newName string) error {
	if err := fs.checkOpen(); err != nil {
		return err
	}
	oldKey, newKey := vfs.Clean(oldName), vfs.Clean(newName)
	// Drain the source while *holding* its writeMu, and keep holding it
	// across the backend rename: without the exclusion, a write racing
	// the rename could buffer a chunk after the drain and have it land
	// under the old path on backends whose handles do not follow a
	// rename. Taking fs.mu while holding a writeMu matches the existing
	// pool-reclaim lock order (write path → reclaimPool → fs.mu). The
	// loop re-checks under fs.mu that the entry we drained is still the
	// table's entry for oldKey — a close+reopen race could swap in a
	// fresh, un-drained entry, which must not be re-keyed unexcluded.
	for {
		entry := fs.lookupEntry(oldKey)
		if entry != nil {
			entry.writeMu.Lock()
			entry.flushTailLocked()
			if err := entry.waitDrained(); err != nil {
				entry.writeMu.Unlock()
				return err
			}
		}
		fs.mu.Lock()
		if fs.files[oldKey] != entry {
			fs.mu.Unlock()
			if entry != nil {
				entry.writeMu.Unlock()
			}
			continue // raced with close/reopen of the source; retry
		}
		err := fs.renameLocked(oldKey, newKey, oldName, newName, entry)
		fs.mu.Unlock()
		if entry != nil {
			entry.writeMu.Unlock()
		}
		return err
	}
}

// renameLocked performs the backend rename and table re-key. The caller
// holds fs.mu, and entry (== fs.files[oldKey], possibly nil) is drained
// with its writeMu held. Backend rename and re-key happen under one fs.mu
// hold so they are atomic with respect to Open and lookupEntry: a rename
// (rare) stalls concurrent opens for one backend round-trip rather than
// let an Open(newName) build a second entry for the same file.
func (fs *FS) renameLocked(oldKey, newKey, oldName, newName string, entry *fileEntry) error {
	if _, ok := fs.files[newKey]; ok && newKey != oldKey {
		return fmt.Errorf("core: rename %s to %s: %w: %w", oldKey, newKey, ErrDestinationOpen, vfs.ErrInvalid)
	}
	if err := fs.backend.Rename(oldName, newName); err != nil {
		return err
	}
	if entry != nil && newKey != oldKey {
		delete(fs.files, oldKey)
		fs.files[newKey] = entry
		entry.mu.Lock()
		entry.name = newKey
		entry.mu.Unlock()
		if entry.pf != nil {
			// Backends whose handles do not follow a rename may serve the
			// new path's bytes from here on; prefetched extents of the old
			// identity must not survive the switch.
			entry.pf.invalidate()
		}
	}
	return nil
}

// Stat implements vfs.FS. For files with buffered data the logical size is
// reported, since the backend size lags until chunks land; for frame
// containers the logical (decoded) size is reported, since the backend
// size is the encoded size.
func (fs *FS) Stat(name string) (vfs.FileInfo, error) {
	if err := fs.checkOpen(); err != nil {
		return vfs.FileInfo{}, err
	}
	info, err := fs.backend.Stat(name)
	if entry := fs.lookupEntry(name); entry != nil {
		if err != nil {
			return vfs.FileInfo{}, err
		}
		entry.mu.Lock()
		framed, size := entry.framed, entry.logicalSize
		entry.mu.Unlock()
		if framed || size > info.Size {
			info.Size = size
		}
		return info, nil
	}
	if err == nil && !info.IsDir && info.Size >= codec.HeaderSize {
		// No open entry: sniff for a frame container so Stat reports the
		// decoded size the mount's reads will serve.
		if p, perr := fs.probeClosed(name); perr == nil && p.ok {
			info.Size = p.logical
		}
	}
	return info, err
}

// probeClosed probes a closed file for a frame container: open, probe,
// close. The scan is bounded by the size the opened handle itself reports,
// so a direct backend write landing after the caller's Stat cannot leave
// it reading new bytes against a stale bound. A torn container probes as
// its intact prefix, the size the mount's reads will serve; the probe
// never mutates — repair happens only on the Open path.
func (fs *FS) probeClosed(name string) (containerProbe, error) {
	f, err := fs.backend.Open(name, vfs.ReadOnly)
	if err != nil {
		return containerProbe{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return containerProbe{}, err
	}
	return probeContainer(f, info.Size)
}

// ReadDir implements vfs.FS (passthrough).
func (fs *FS) ReadDir(name string) ([]vfs.DirEntry, error) {
	if err := fs.checkOpen(); err != nil {
		return nil, err
	}
	return fs.backend.ReadDir(name)
}

// Truncate implements vfs.FS. Open files are drained first so buffered
// chunks cannot resurrect truncated data.
func (fs *FS) Truncate(name string, size int64) error {
	if err := fs.checkOpen(); err != nil {
		return err
	}
	if entry := fs.lookupEntry(name); entry != nil {
		entry.flushTail()
		if err := entry.waitDrained(); err != nil {
			return err
		}
		return entry.truncate(size)
	}
	// Closed file: cutting a frame container's encoded stream mid-frame
	// would corrupt it permanently, so probe first and apply the same
	// contract as open framed entries. A probe failure refuses the
	// truncate rather than guessing plain — the same policy indexEntry
	// applies to opens.
	if info, serr := fs.backend.Stat(name); serr == nil && !info.IsDir && info.Size >= codec.HeaderSize {
		p, err := fs.probeClosed(name)
		if err != nil {
			// Unprobeable: a codec mount refuses rather than risk cutting
			// a container mid-frame; a raw mount keeps seed passthrough
			// (same split as indexEntry's can't-sniff policy).
			if fs.opts.framedWrites() {
				return fmt.Errorf("core: truncate %s: cannot probe for frame container: %w", name, err)
			}
		} else if p.ok {
			act, err := containerTruncateAction(name, size, p.logical)
			if err != nil {
				return err
			}
			switch act {
			case truncNoop:
				return nil
			case truncExtend:
				// Route through an open entry so the marker-frame logic
				// applies.
				f, err := fs.Open(name, vfs.WriteOnly)
				if err != nil {
					return err
				}
				terr := f.Truncate(size)
				if cerr := f.Close(); terr == nil {
					terr = cerr
				}
				return terr
			case truncReset:
				// Reset to zero is the plain backend truncate below.
			}
		}
	}
	return fs.backend.Truncate(name, size)
}

func (fs *FS) lookupEntry(name string) *fileEntry {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.files[vfs.Clean(name)]
}

// SyncAll flushes every open file's buffered chunks, waits for them to
// land, then asks the backend to sync if it can.
func (fs *FS) SyncAll() error {
	if err := fs.checkOpen(); err != nil {
		return err
	}
	fs.mu.Lock()
	entries := make([]*fileEntry, 0, len(fs.files))
	for _, e := range fs.files {
		entries = append(entries, e)
	}
	fs.mu.Unlock()
	var firstErr error
	for _, e := range entries {
		e.flushTail()
	}
	for _, e := range entries {
		if err := e.drainReport(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s, ok := fs.backend.(vfs.Syncer); ok {
		if err := s.SyncAll(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Unmount drains all buffered data, stops the IO workers, and marks the
// filesystem closed. Open handles become invalid. Unmount returns the
// first backend write error encountered by any file, if any.
func (fs *FS) Unmount() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return fmt.Errorf("core: filesystem unmounted: %w", vfs.ErrClosed)
	}
	fs.closed = true
	entries := make([]*fileEntry, 0, len(fs.files))
	for _, e := range fs.files {
		entries = append(entries, e)
	}
	fs.files = make(map[string]*fileEntry)
	fs.mu.Unlock()

	var firstErr error
	for _, e := range entries {
		e.flushTail()
	}
	for _, e := range entries {
		if err := e.drainReport(); err != nil && firstErr == nil {
			firstErr = err
		}
		e.dropDecoded(true)
		if e.pf != nil {
			e.pf.invalidate()
		}
		if err := e.backendFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	close(fs.queue)
	close(fs.prefetchq)
	fs.workers.Wait()
	return firstErr
}

var (
	_ vfs.FS     = (*FS)(nil)
	_ vfs.Syncer = (*FS)(nil)
)
