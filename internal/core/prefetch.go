package core

import (
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crfs/internal/codec"
	"crfs/internal/obs"
)

// Restart read pipeline: sequential-read detection on a file handle
// triggers read-ahead of the next chunks (plain files) or frames
// (containers), fetched and decoded in parallel on the same IO worker
// pool that drains the write queue. Completed prefetches are cached
// per-entry and served as the durable *base* of the buffered-read-through
// overlay — in-flight and active chunks still win over prefetched bytes,
// exactly as they win over backend bytes.
//
// Correctness hinges on two rules:
//
//  1. Generation invalidation. Every mutation of the entry — write,
//     truncate, container reset, rename, and, decisively, every chunk
//     *retirement* (the moment the overlay hands an extent's authority
//     to the durable base) — bumps the prefetch generation and drops
//     the cache. A fetch captures the generation before it reads and
//     publishes only if it is unchanged, so a fetch that raced a
//     mutation is discarded, never served. The retirement bump is the
//     one that makes the rule airtight: a fetch begun inside write()'s
//     own window (generation already bumped, payload not yet buffered)
//     can publish pre-write bytes, but they die no later than the moment
//     the write's chunk leaves the overlay.
//  2. Clean-pipeline fetch. Backend bytes are fetched into the cache
//     only while the entry's write pipeline is fully drained (no active
//     or in-flight chunks); fetching alongside buffered writes would only
//     produce blocks that rule 1 is about to discard.
//
// Both rules bind the two kinds of fetch alike: a job an IO worker runs
// ahead of the stream, and the rest of the block a stream of small reads
// is inside, which the reader fetches itself on a miss (fetchSelf) —
// read-ahead only ever covers blocks *past* the reader, so without it
// every block a worker did not finish in time would be read 512 bytes at
// a time.
//
// Nothing the read path holds lives on the bare heap in steady state: a
// reader copies under a pin and the last unpin recycles the buffer. Plain-
// file blocks are fetched into buffer-pool chunks taken with the
// non-blocking tryGet — read-ahead never steals buffers from a blocked
// writer. One entry's read-ahead holds at most an even share of the pool
// (FS.readAheadShare), so the second restart reader finds chunks left,
// and a writer blocked on the pool takes back only what competes
// unfairly (reclaim). Frames are decoded into buffers of the mount's
// decode free list (FS.decBufs), like the one-frame decode cache they
// feed: they are not the pool's, so a container is read ahead to the full
// depth however small the pool is — every frame a stream will need is on
// a worker at once, and a restore keeps all cores busy to its last frame
// whichever of its files runs ahead. Only a frame that finds the free
// list empty, or is larger than a chunk, is decoded into fresh memory
// (Stats.DecodeHeapFallbacks).

// seqThreshold is how many back-to-back sequential reads a handle must
// issue before it counts as a stream and read-ahead starts.
const seqThreshold = 2

// selfFetchMax is the largest read that makes its reader fetch the rest of
// its block: the fetch costs one more copy of every byte it serves, which
// is cheaper than a backend call per read only while reads are small (a
// call into a page-cache backend costs about what copying 16 KiB does).
// Larger reads go straight to the backend into the caller's buffer.
const selfFetchMax = 16 << 10

// prefetched is one fetched extent — a plain block or a decoded frame —
// in an entry's read-ahead cache or its one-frame decode cache.
type prefetched struct {
	start int64  // logical offset of buf[0]
	buf   []byte // the bytes (never mutated once published)
	c     *chunk // pool chunk (block) or decode buffer (frame) backing buf; nil for a frame on the heap
	hit   bool   // served at least one read (distinguishes wasted fetches)
}

// prefetcher holds one entry's read-ahead state. Its mutex is a leaf
// lock: it is never held while acquiring entry.mu, fs.mu, or decMu.
type prefetcher struct {
	fs *FS
	e  *fileEntry

	// gen is bumped by invalidate, under mu; stale fetches don't publish.
	// It is atomic so a handle can check its copy (streamCopy) against it
	// without taking mu.
	gen atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond              // broadcast whenever ready/pending change
	ready   map[int64]*prefetched   // completed fetches, keyed by block start (plain) or frame pos (framed)
	order   []int64                 // ready keys in publish order, for FIFO capacity eviction
	pending map[int64]*pendingFetch // keys with a fetch scheduled or running, not yet published
	pos     int64                   // block a reader last hit or fetched: where the stream is

	// idle counts the reclaim ticks of blocked writers since a read last
	// consulted the plain-block cache (which zeroes it): the age, in
	// ticks, of a stream that may have gone quiet.
	idle atomic.Int32
}

// pendingFetch tracks one fetch that has not published yet. started flips
// when a worker picks the job up (a reader's own fetch is born started):
// readers wait only for started fetches (bounded by one backend
// round-trip / decode) and *steal* unstarted ones — a job starved behind a
// sustained checkpoint write stream must never turn read-ahead into a
// read dependency. A stolen job is cancelled: the worker finds its
// pending marker gone and skips the fetch entirely. pooled marks a fetch
// that lands in a pool chunk and so counts against the entry's share.
type pendingFetch struct {
	started bool
	pooled  bool
}

func newPrefetcher(fs *FS, e *fileEntry) *prefetcher {
	pf := &prefetcher{
		fs:      fs,
		e:       e,
		ready:   make(map[int64]*prefetched),
		pending: make(map[int64]*pendingFetch),
	}
	pf.cond = sync.NewCond(&pf.mu)
	return pf
}

// depth returns the configured read-ahead depth (chunks/frames).
func (pf *prefetcher) depth() int { return pf.fs.opts.ReadAhead }

// invalidate bumps the generation and drops every cached and in-flight
// prefetch of the entry: fetches under way will see the bumped generation
// and discard their bytes instead of publishing them. The pending set is
// cleared too — readers must not keep waiting on jobs that may never run
// again (the workers drain the write queue first, and at unmount they
// stop) — so a waiting reader wakes and falls back to its own synchronous
// fetch. It runs on every write call, so with nothing cached or scheduled
// (a checkpoint stream nobody reads) it is the generation bump alone.
func (pf *prefetcher) invalidate() {
	pf.mu.Lock()
	pf.gen.Add(1)
	if len(pf.ready)+len(pf.pending) == 0 {
		pf.mu.Unlock()
		return
	}
	var wasted int64
	for _, pr := range pf.ready {
		if !pr.hit {
			wasted++
		}
		pf.fs.putReadChunk(pr.c)
	}
	clear(pf.ready)
	clear(pf.pending)
	pf.order = pf.order[:0]
	pf.cond.Broadcast()
	pf.mu.Unlock()
	if wasted > 0 {
		pf.fs.stats.prefetchWasted.Add(wasted)
	}
}

// schedule plans read-ahead past a sequential read that ended at from,
// enqueueing block- or frame-fetch jobs on the IO workers: up to depth()
// of them, and for a plain file no more than the entry's share of the
// pool has room for. ctx parents the resulting fetch spans (zero when
// tracing is off). It returns the stream offset at which the handle
// should plan again: the next block boundary for a plain file — one plan
// per block entered, whatever the size of the calls — and never for a
// container, whose stream plans again by itself each time it enters a
// frame (decodeFrame). Called with no locks of the entry held but
// truncMu, shared.
func (pf *prefetcher) schedule(from int64, ctx obs.SpanContext) (next int64) {
	e := pf.e
	e.mu.Lock()
	framed := e.framed
	size := e.logicalSize
	var locs []codec.FrameInfo
	if framed {
		locs = e.nextFramesLocked(from, pf.depth())
	}
	e.mu.Unlock()

	var jobs []prefetchJob
	pf.mu.Lock()
	gen := pf.gen.Load()
	if framed {
		// A cached frame that is not among the next ones — a seek or a
		// second handle's stream left it behind — would hold its buffer
		// for nothing: an entry keeps at most depth frames ahead.
		for k, pr := range pf.ready {
			if slices.ContainsFunc(locs, func(fr codec.FrameInfo) bool { return fr.Pos == k }) {
				continue
			}
			if !pr.hit {
				pf.fs.stats.prefetchWasted.Add(1)
			}
			pf.fs.putReadChunk(pr.c)
			pf.removeLocked(k)
		}
	}
	share, held := pf.fs.readAheadShare(), pf.pooledLocked()
	// add schedules the fetch of j.key unless it is cached or under way,
	// and reports whether there is room to go on. Only a plain block
	// takes a pool chunk, and so room in the entry's share.
	add := func(j prefetchJob) bool {
		if len(pf.pending) >= pf.depth() || (!framed && held >= share) {
			return false
		}
		if _, ok := pf.ready[j.key]; ok {
			return true
		}
		if _, ok := pf.pending[j.key]; ok {
			return true
		}
		j.e, j.gen, j.ctx, j.ps = e, gen, ctx, &pendingFetch{pooled: !framed}
		pf.pending[j.key] = j.ps
		held++
		jobs = append(jobs, j)
		return true
	}
	if framed {
		next = math.MaxInt64
		for _, fr := range locs {
			if !add(prefetchJob{key: fr.Pos, framed: true, fr: fr}) {
				break
			}
		}
	} else {
		bs := pf.fs.opts.ChunkSize
		next = (from/bs + 1) * bs
		first := ((from + bs - 1) / bs) * bs // first whole block past the read
		for b := first; b < first+int64(pf.depth())*bs && b < size; b += bs {
			if !add(prefetchJob{key: b, n: bs}) {
				break
			}
		}
	}
	pf.mu.Unlock()
	for _, j := range jobs {
		if !pf.fs.enqueuePrefetch(j) {
			pf.drop(j.key)
		}
	}
	return next
}

// nextFramesLocked returns up to n frames starting at or past from, in
// index (offset) order — the frames a sequential reader will decode
// next. A frame already straddling from is excluded: the reader decoded
// it to get here, and it lives in the one-frame decode cache, so
// re-fetching it would only produce a wasted duplicate. Pad frames
// (RawLen 0) are skipped. Caller holds e.mu.
func (e *fileEntry) nextFramesLocked(from int64, n int) []codec.FrameInfo {
	lo := sort.Search(len(e.frames), func(i int) bool {
		return e.frames[i].Header.Off >= from
	})
	out := make([]codec.FrameInfo, 0, n)
	for i := lo; i < len(e.frames) && len(out) < n; i++ {
		if fr := e.frames[i]; fr.Header.RawLen > 0 {
			out = append(out, fr)
		}
	}
	return out
}

// pooled reports whether pr lives in a chunk of the buffer pool (a plain
// block) rather than a decode buffer or the heap (a frame).
func (pf *prefetcher) pooled(pr *prefetched) bool {
	return pr.c != nil && pr.c.pool == pf.fs.pool
}

// pooledLocked counts the pool chunks the entry's read-ahead holds or is
// about to: cached plain blocks plus plain fetches not yet published.
// Caller holds pf.mu.
func (pf *prefetcher) pooledLocked() (n int) {
	for _, pr := range pf.ready {
		if pf.pooled(pr) {
			n++
		}
	}
	for _, ps := range pf.pending {
		if ps.pooled {
			n++
		}
	}
	return n
}

// evictLocked gives pool chunks back until the entry's read-ahead holds
// at most limit: it drops cached plain blocks and cancels fetches no
// worker has started (the worker finds the marker gone and skips the
// job), whichever is farthest from the stream's position first, and never
// the block starting at keep (-1: none is exempt). A fetch under way
// cannot be taken back, so the count may stay above limit. It returns how
// many blocks and jobs it dropped. Caller holds pf.mu.
func (pf *prefetcher) evictLocked(limit int, keep int64) (dropped int) {
	var wasted int64
	for held := pf.pooledLocked(); held > limit; held-- {
		far, dist := int64(-1), int64(-1)
		farther := func(k int64) {
			if d := max(k-pf.pos, pf.pos-k); k != keep && d > dist {
				far, dist = k, d
			}
		}
		for k, pr := range pf.ready {
			if pf.pooled(pr) {
				farther(k)
			}
		}
		for k, ps := range pf.pending {
			if ps.pooled && !ps.started {
				farther(k)
			}
		}
		if far < 0 {
			break
		}
		if pr, ok := pf.ready[far]; ok {
			if !pr.hit {
				wasted++
			}
			pf.fs.putReadChunk(pr.c)
			pf.removeLocked(far)
		} else {
			delete(pf.pending, far)
		}
		dropped++
	}
	if wasted > 0 {
		pf.fs.stats.prefetchWasted.Add(wasted)
	}
	return dropped
}

// idleTicks is how many reclaim ticks of a blocked writer (reclaimTick
// apart) a stream may go unread before its read-ahead counts as abandoned:
// about 10 ms, the longest the runtime lets a runnable reader wait for a
// processor behind busy goroutines. Anything shorter takes the cache from
// under streams that are merely descheduled, and the backend then reads
// the rest of their blocks twice.
const idleTicks = 50

// reclaim is one open file's part of a blocked writer's reclaim tick
// (FS.reclaimPool). Checkpoint writes outrank restart read-ahead for pool
// buffers, but a stream that is being read keeps its share of them: only
// blocks held beyond share go back, unless no read came by the cache for
// idleTicks ticks or read-ahead holds the whole pool (all) — then every
// cached block does. Decoded frames are not in pool chunks and are left
// alone, and the generation is not bumped: the evicted blocks were valid,
// just expensive to keep.
func (pf *prefetcher) reclaim(share int, all bool) {
	pf.mu.Lock()
	if len(pf.ready) == 0 {
		pf.mu.Unlock()
		return
	}
	if pf.idle.Add(1) > idleTicks || all {
		share = 0
	}
	dropped := pf.evictLocked(share, -1)
	pf.mu.Unlock()
	if dropped > 0 {
		pf.fs.stats.prefetchReclaimed.Add(int64(dropped))
	}
}

// drop removes a pending marker (job skipped or failed), releasing any
// reader waiting for that key to duplicate the fetch itself.
func (pf *prefetcher) drop(key int64) {
	pf.mu.Lock()
	delete(pf.pending, key)
	pf.cond.Broadcast()
	pf.mu.Unlock()
}

// publish installs a completed fetch, unless the generation moved while
// it ran — then the bytes are discarded as wasted. The cache is capped at
// twice the depth; overflow evicts the oldest entry.
func (pf *prefetcher) publish(key int64, pr *prefetched, gen uint64) {
	pf.mu.Lock()
	delete(pf.pending, key)
	if gen != pf.gen.Load() {
		pf.cond.Broadcast()
		pf.mu.Unlock()
		pf.fs.putReadChunk(pr.c)
		if !pr.hit {
			pf.fs.stats.prefetchWasted.Add(1)
		}
		return
	}
	if old, ok := pf.ready[key]; ok {
		// Shouldn't happen (pending excludes re-schedule), but never leak.
		pf.fs.putReadChunk(old.c)
	} else {
		pf.order = append(pf.order, key)
	}
	pf.ready[key] = pr
	var wasted int64
	for len(pf.order) > 2*pf.depth() {
		k := pf.order[0]
		pf.order = pf.order[1:]
		if old, ok := pf.ready[k]; ok {
			if !old.hit {
				wasted++
			}
			pf.fs.putReadChunk(old.c)
			delete(pf.ready, k)
		}
	}
	pf.cond.Broadcast()
	pf.mu.Unlock()
	pf.fs.stats.prefetchBytes.Add(int64(len(pr.buf)))
	if wasted > 0 {
		pf.fs.stats.prefetchWasted.Add(wasted)
	}
}

// removeLocked deletes key from ready and order. Caller holds pf.mu.
func (pf *prefetcher) removeLocked(key int64) {
	delete(pf.ready, key)
	for i, k := range pf.order {
		if k == key {
			pf.order = append(pf.order[:i], pf.order[i+1:]...)
			break
		}
	}
}

// readBase fills p (at logical offset off) for a plain entry of logical
// size size, serving each chunk-aligned segment from the read-ahead cache
// when present and from the backend otherwise. It preserves
// readPlainInto's contract: bytes the backend does not have read as
// zeros. stream says the read belongs to a recognised sequential stream
// over a clean write pipeline, which is what lets a miss fetch the rest
// of its block into the cache (copyPlain) — if the read is a small one
// (selfFetchMax) inside one block: the bytes of a large read go straight
// from the backend into the caller's buffer.
func (pf *prefetcher) readBase(p []byte, off, size int64, stream bool) error {
	bs := pf.fs.opts.ChunkSize
	end := off + int64(len(p))
	for cur := off; cur < end; {
		bstart := cur - cur%bs
		segEnd := min(bstart+bs, end)
		seg := p[cur-off : segEnd-off]
		fetchEnd := cur
		if stream && len(seg) == len(p) && len(p) <= selfFetchMax {
			fetchEnd = min(bstart+bs, size)
		}
		if !pf.copyPlain(seg, cur, bstart, fetchEnd) {
			n, err := pf.e.backendFile.ReadAt(seg, cur)
			if err != nil && err != io.EOF {
				return err
			}
			clear(seg[n:])
		}
		cur = segEnd
	}
	return nil
}

// copyPlain serves seg (logical offset cur, inside the block starting at
// bstart) from the cache. A block a worker is actively fetching is
// awaited rather than refetched — duplicating the backend read would
// waste exactly the bandwidth read-ahead is trying to overlap — but a
// job still queued is stolen (awaitOrSteal) so a starved queue never
// blocks a read. A cached extent that does not cover the segment — the
// fetch stopped short of it (backend EOF at fetch time), or a reader
// fetched it for itself from an offset past this one — is a miss: the
// backend read is the authority on bytes the fetch did not capture. A
// segment that reaches the end of the cached block consumes it —
// sequential readers pass each block exactly once, so keeping it would
// only displace fresh blocks.
//
// On a miss with nothing cached or under way for the block, a reader
// fetches [cur, fetchEnd) — the rest of the block it is inside — for
// itself (fetchEnd == cur: not a stream of small reads, don't), if the
// entry's share of the pool has a chunk free.
func (pf *prefetcher) copyPlain(seg []byte, cur, bstart, fetchEnd int64) bool {
	segEnd := cur + int64(len(seg))
	if pf.idle.Load() != 0 {
		pf.idle.Store(0)
	}
	pf.mu.Lock()
	if share := pf.fs.readAheadShare(); len(pf.ready)+len(pf.pending) > share {
		// The share shrank (more files were opened): the stream gives the
		// excess back at its next read, farthest block first.
		pf.evictLocked(share, bstart)
	}
	pr, ok := pf.ready[bstart]
	for !ok && pf.awaitOrStealLocked(bstart) {
		pr, ok = pf.ready[bstart]
	}
	if !ok || cur < pr.start || segEnd > pr.start+int64(len(pr.buf)) {
		var c *chunk
		gen := pf.gen.Load()
		if !ok && fetchEnd > segEnd {
			c = pf.reserveSelfLocked(bstart)
		}
		pf.mu.Unlock()
		pf.e.calls.prefetchMisses.Add(1)
		return c != nil && pf.fetchSelf(c, gen, seg, cur, bstart, fetchEnd)
	}
	pr.hit = true
	pf.pos = bstart
	consumed := segEnd == pr.start+int64(len(pr.buf))
	if consumed {
		pf.removeLocked(bstart)
	}
	// Pin for the copy while the entry is still reachable (cache ref held
	// or just transferred to us); the buffer cannot recycle under the copy.
	if !consumed {
		pr.c.pin()
	}
	pf.mu.Unlock()
	copy(seg, pr.buf[cur-pr.start:])
	if consumed {
		pf.fs.putReadChunk(pr.c) // the cache's reference, transferred to us
	} else {
		pr.c.unpin()
	}
	pf.e.calls.prefetchHits.Add(1)
	return true
}

// reserveSelfLocked takes the pool chunk for a reader's own fetch of the
// block at bstart and marks the fetch pending, so a second reader of the
// block waits for it instead of fetching again. It returns nil — the
// reader then reads from the backend directly, as it would without
// read-ahead — when the pool has no chunk free or the entry's share is
// used up by blocks that are not farther from the stream than this one.
// Caller holds pf.mu.
func (pf *prefetcher) reserveSelfLocked(bstart int64) *chunk {
	pf.pos = bstart
	share := pf.fs.readAheadShare()
	if pf.pooledLocked()-pf.evictLocked(share-1, bstart) >= share {
		return nil
	}
	c := pf.fs.getReadChunk()
	if c != nil {
		pf.pending[bstart] = &pendingFetch{started: true, pooled: true}
	}
	return c
}

// fetchSelf reads [cur, fetchEnd) — the rest of the block a stream of
// small reads is inside — into c, serves seg from it, and publishes the
// extent under gen, the generation loaded before the fetch (rule 1; rule
// 2 was the caller's: it asks only over a clean pipeline). The reader is
// inside its read (truncMu held shared), so the bytes are as good for
// seg as a direct backend read even when the publish is refused. It
// returns false, leaving seg to that direct read, when the backend
// failed or has less than seg.
func (pf *prefetcher) fetchSelf(c *chunk, gen uint64, seg []byte, cur, bstart, fetchEnd int64) bool {
	n, err := pf.e.backendFile.ReadAt(c.buf[:fetchEnd-cur], cur)
	if (err != nil && err != io.EOF) || n < len(seg) {
		pf.fs.putReadChunk(c)
		pf.drop(bstart)
		return false
	}
	copy(seg, c.buf)
	if n == len(seg) {
		// The backend had nothing past seg: there is no block to cache.
		pf.fs.putReadChunk(c)
		pf.drop(bstart)
		return true
	}
	pf.fs.stats.prefetchSelf.Add(1)
	pf.publish(bstart, &prefetched{start: cur, buf: c.buf[:n], c: c, hit: true}, gen)
	return true
}

// takeFrame removes and returns a prefetched decoded frame, or nil. A
// frame actively decoding on a worker is awaited — a synchronous
// duplicate decode of a multi-megabyte frame costs far more CPU than
// the wait — while a job still queued is stolen so a starved queue
// never blocks a read. The cache's reference on the frame's buffer
// transfers to the caller (who hands it to the entry's one-frame decode
// cache).
func (pf *prefetcher) takeFrame(pos int64) *prefetched {
	pf.mu.Lock()
	for {
		if pr, ok := pf.ready[pos]; ok {
			pr.hit = true
			pf.removeLocked(pos)
			pf.mu.Unlock()
			pf.e.calls.prefetchHits.Add(1)
			return pr
		}
		if !pf.awaitOrStealLocked(pos) {
			pf.mu.Unlock()
			pf.e.calls.prefetchMisses.Add(1)
			return nil
		}
	}
}

// awaitOrStealLocked resolves a reader's encounter with a possibly
// pending key: no pending job means a plain miss (false); a started job
// is awaited (one cond wait, then the caller re-checks); an unstarted
// job — still queued behind write chunks, possibly for a long time — is
// cancelled by removing its marker, so the reader fetches synchronously
// and the worker later skips the job. Returns true when the caller
// should re-check ready/pending. Caller holds pf.mu.
func (pf *prefetcher) awaitOrStealLocked(key int64) bool {
	ps, ok := pf.pending[key]
	if !ok {
		return false
	}
	if !ps.started {
		delete(pf.pending, key)
		pf.cond.Broadcast()
		return false
	}
	pf.cond.Wait()
	return true
}

// prefetchJob is one read-ahead unit handed to the IO workers: a
// chunk-aligned backend block (plain entries) or one frame to fetch and
// decode (containers).
type prefetchJob struct {
	e      *fileEntry
	gen    uint64        // prefetch generation at schedule time
	ps     *pendingFetch // the job's pending marker; gone or replaced: the job was cancelled
	key    int64         // cache key: block start (plain) or frame pos (framed)
	n      int64         // plain: block length to fetch
	framed bool
	fr     codec.FrameInfo // framed: the frame to decode

	enqueuedAt int64           // fs.monotonic() at enqueue (0: not stamped), for queue-wait dwell
	ctx        obs.SpanContext // parents the fetch span under the triggering read
}

// runPrefetch executes one job on an IO worker. The job first claims its
// pending marker (a reader may have stolen it while the job queued
// behind write chunks — then the fetch is skipped entirely); the fetch
// starts only if the entry's write pipeline is clean (see the package
// comment's rule 2) and publishes only if the generation is unchanged
// (rule 1).
func (fs *FS) runPrefetch(j prefetchJob) {
	if j.enqueuedAt != 0 {
		fs.hist.queueWaitPrefetch.Observe(fs.monotonic() - j.enqueuedAt)
	}
	var sp obs.Span
	if fs.tracer.Enabled() {
		sp = fs.tracer.StartChild("crfs.prefetch", j.ctx)
		sp.AttrInt("key", j.key)
		defer sp.End()
	}
	pf := j.e.pf
	e := j.e
	pf.mu.Lock()
	if pf.pending[j.key] != j.ps {
		// Stolen by a reader, cancelled for room, or invalidated while
		// queued. (A marker under the same key may be a reader's own fetch
		// of the block: identity, not presence, is what the job claims.)
		pf.mu.Unlock()
		return
	}
	j.ps.started = true
	pf.mu.Unlock()
	e.mu.Lock()
	clean := e.doneChunks == e.writeChunks && (e.active == nil || e.active.fill.Load() == 0)
	e.mu.Unlock()
	if !clean {
		pf.drop(j.key)
		return
	}
	if j.framed {
		if pr, err := fs.fetchFrame(e.backendFile, j.fr); err != nil {
			pf.drop(j.key)
		} else {
			pf.publish(j.key, pr, j.gen)
		}
		return
	}
	c := pf.fs.getReadChunk()
	if c == nil {
		// Pool exhausted by writers: read-ahead yields rather than compete.
		pf.drop(j.key)
		return
	}
	n, err := e.backendFile.ReadAt(c.buf[:j.n], j.key)
	if (err != nil && err != io.EOF) || n == 0 {
		pf.fs.putReadChunk(c)
		pf.drop(j.key)
		return
	}
	pf.publish(j.key, &prefetched{start: j.key, buf: c.buf[:n], c: c}, j.gen)
}

// enqueuePrefetch hands a job to the IO workers without blocking: a full
// queue (or an unmounted filesystem) drops the job — read-ahead is an
// optimization, never a dependency.
func (fs *FS) enqueuePrefetch(j prefetchJob) (ok bool) {
	defer func() {
		// Unmount closes the queue; a racing schedule must not crash.
		if recover() != nil {
			ok = false
		}
	}()
	j.enqueuedAt = fs.monotonic()
	select {
	case fs.prefetchq <- j:
		return true
	default:
		return false
	}
}
