package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crfs/internal/codec"
	"crfs/internal/obs"
)

// Restart read pipeline: sequential-read detection on a file handle
// triggers read-ahead of a container's next frames, fetched and decoded in
// parallel on the same IO worker pool that drains the write queue.
// Completed prefetches are cached per-entry and served as the durable
// *base* of the buffered-read-through overlay — in-flight and active
// chunks still win over prefetched bytes, exactly as they win over backend
// bytes. A plain file's base read goes straight to the backend (§IV-D.1):
// the kernel already reads ahead under a real backend, and copying its
// blocks through the mount would only add a copy.
//
// Correctness rests on one rule: a decoded frame stays valid until its
// container resets. A frame at a container position never changes — a
// write appends a new frame, and a read applies every frame overlapping
// it in sequence order, so a cached frame a later write shadows is still
// the right base below it. What does move what a position holds bumps the
// prefetch generation and empties every cache of the entry: truncate,
// container reset, rename (for backends whose handles do not follow one),
// the last close and Unmount. A fetch or decode captures the generation
// before it reads and publishes only if it is unchanged, so one that raced
// such a change is discarded, never served. Writes and chunk retirements
// leave the caches alone.
//
// The generation also tells a handle's copy of a stream of small reads
// (streamCopy) that it no longer reads as the file does.
//
// Nothing the read path holds lives on the bare heap in steady state: a
// reader copies under a pin and the last unpin recycles the buffer.
// Frames are decoded into buffers of the mount's decode free list
// (FS.decBufs), like the frame a stream is inside (prefetcher.cur): they
// are not the buffer pool's, which holds write chunks only, so a container
// is read ahead to the full depth however small the pool is — every frame
// a stream will need is on a worker at once, and a restore keeps all cores
// busy to its last frame whichever of its files runs ahead. Only a frame
// that finds the free list empty, or is larger than a chunk, is decoded
// into fresh memory (Stats.DecodeHeapFallbacks).

// seqThreshold is how many back-to-back sequential reads a handle must
// issue before it counts as a stream and read-ahead starts.
const seqThreshold = 2

// selfFetchMax is the size of a handle's copy of its stream of small
// reads (streamCopy), and so the most one refill reads: serving a read
// from the copy costs one more copy of its bytes, which is cheaper than a
// backend call per read only while reads are small (a call into a
// page-cache backend costs about what copying 16 KiB does). Larger reads
// go straight to the backend into the caller's buffer.
const selfFetchMax = 16 << 10

// prefetched is one decoded frame: in an entry's read-ahead cache, or the
// frame a stream is inside (prefetcher.cur).
type prefetched struct {
	pos int64  // container position of the frame
	buf []byte // the bytes (never mutated once published)
	c   *chunk // decode buffer backing buf; nil for a frame on the heap
	hit bool   // served at least one read (distinguishes wasted fetches)
}

// unpin drops a reference to the frame's buffer; a nil frame has none.
func (pr *prefetched) unpin() {
	if pr != nil {
		pr.c.unpin()
	}
}

// prefetcher holds one entry's decoded frames: the read-ahead cache and
// the frame a stream is inside. Its mutex is the leaf lock: it is never
// held while acquiring another, nor across a decode or backend call.
type prefetcher struct {
	e *fileEntry

	// gen is bumped by invalidate, under mu; stale fetches and decodes
	// don't publish. It is atomic so a handle can check its copy
	// (streamCopy) against it without taking mu.
	gen atomic.Uint64

	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever ready/pending change
	// cur is the frame the last read decoded or took from ready; it holds
	// the frame's read-path reference, and a reader copies from it under
	// a pin of its own, so replacing or dropping it never recycles a
	// buffer under a copy. nil when no read has entered a frame since the
	// last invalidate.
	cur     *prefetched
	ready   map[int64]*prefetched   // completed fetches, keyed by frame pos
	order   []int64                 // ready keys in publish order, for FIFO capacity eviction
	pending map[int64]*pendingFetch // keys with a fetch scheduled or running, not yet published
}

// pendingFetch tracks one fetch that has not published yet. started flips
// when a worker picks the job up: readers wait only for started fetches
// (bounded by one backend round-trip and decode) and *steal* unstarted
// ones — a job starved behind a sustained checkpoint write stream must
// never turn read-ahead into a read dependency. A stolen job is
// cancelled: the worker finds its pending marker gone and skips the fetch
// entirely.
type pendingFetch struct {
	started bool
}

func newPrefetcher(e *fileEntry) *prefetcher {
	pf := &prefetcher{
		e:       e,
		ready:   make(map[int64]*prefetched),
		pending: make(map[int64]*pendingFetch),
	}
	pf.cond = sync.NewCond(&pf.mu)
	return pf
}

// depth returns the configured read-ahead depth in frames.
func (pf *prefetcher) depth() int { return pf.e.fs.opts.ReadAhead }

// invalidate bumps the generation and drops every decoded frame of the
// entry — the current one, the cached ones and those in flight: fetches
// and decodes under way will see the bumped generation and discard their
// bytes instead of publishing them. The pending set is cleared too —
// readers must not keep waiting on jobs that may never run again (the
// workers drain the write queue first, and at unmount they stop) — so a
// waiting reader wakes and falls back to its own synchronous fetch. It
// runs when what a container position holds may change (see the package
// comment), never on a write.
func (pf *prefetcher) invalidate() {
	pf.mu.Lock()
	pf.gen.Add(1)
	cur := pf.cur
	pf.cur = nil
	var wasted int64
	for _, pr := range pf.ready {
		if !pr.hit {
			wasted++
		}
		pr.c.unpin()
	}
	clear(pf.ready)
	clear(pf.pending)
	pf.order = pf.order[:0]
	pf.cond.Broadcast()
	pf.mu.Unlock()
	cur.unpin()
	if wasted > 0 {
		pf.e.fs.stats.prefetchWasted.Add(wasted)
	}
}

// schedule plans read-ahead of a container's next frames past a
// sequential read that ended at from, enqueueing up to depth() frame
// fetch-and-decode jobs on the IO workers; a plain file has nothing to
// plan. ctx parents the resulting fetch spans (zero when tracing is off).
// A cached frame that is not among the next ones — a seek or a second
// handle's stream left it behind — would hold its buffer for nothing: an
// entry keeps at most depth frames ahead. Called with no lock of the
// entry held but, from decodeFrame, truncMu shared.
func (pf *prefetcher) schedule(from int64, ctx obs.SpanContext) {
	e := pf.e
	// The generation is loaded before the index is read: a reset that
	// empties the index between the two bumps it after, so jobs planned
	// from the old frames die at publish.
	gen := pf.gen.Load()
	e.mu.Lock()
	if !e.framed {
		e.mu.Unlock()
		return
	}
	locs := e.nextFramesLocked(from, pf.depth())
	e.mu.Unlock()

	var jobs []prefetchJob
	pf.mu.Lock()
	for k, pr := range pf.ready {
		if slices.ContainsFunc(locs, func(fr codec.FrameInfo) bool { return fr.Pos == k }) {
			continue
		}
		if !pr.hit {
			pf.e.fs.stats.prefetchWasted.Add(1)
		}
		pr.c.unpin()
		pf.removeLocked(k)
	}
	for _, fr := range locs {
		if len(pf.pending) >= pf.depth() {
			break
		}
		if _, ok := pf.ready[fr.Pos]; ok {
			continue
		}
		if _, ok := pf.pending[fr.Pos]; ok {
			continue
		}
		j := prefetchJob{e: e, gen: gen, ctx: ctx, ps: &pendingFetch{}, fr: fr}
		pf.pending[fr.Pos] = j.ps
		jobs = append(jobs, j)
	}
	pf.mu.Unlock()
	for _, j := range jobs {
		if !e.fs.enqueuePrefetch(j) {
			pf.drop(j.fr.Pos)
		}
	}
}

// nextFramesLocked returns up to n frames starting at or past from, in
// index (offset) order — the frames a sequential reader will decode
// next. A frame already straddling from is excluded: the reader decoded
// it to get here, and it is the prefetcher's current frame (cur), so
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
		pr.c.unpin()
		if !pr.hit {
			pf.e.fs.stats.prefetchWasted.Add(1)
		}
		return
	}
	if old, ok := pf.ready[key]; ok {
		// Shouldn't happen (pending excludes re-schedule), but never leak.
		old.c.unpin()
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
			old.c.unpin()
			delete(pf.ready, k)
		}
	}
	pf.cond.Broadcast()
	pf.mu.Unlock()
	pf.e.fs.stats.prefetchBytes.Add(int64(len(pr.buf)))
	if wasted > 0 {
		pf.e.fs.stats.prefetchWasted.Add(wasted)
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

// takeFrame returns the decoded frame fr, pinned for the caller's copy
// (the caller unpins), or nil and the generation a decode of it is to be
// kept under (keep). A read still inside the current frame gets cur.
// Otherwise the frame comes from the read-ahead cache and becomes cur: a
// frame actively decoding on a worker is awaited — a synchronous
// duplicate decode of a multi-megabyte frame costs far more CPU than the
// wait — while a job still queued is stolen so a starved queue never
// blocks a read. On a miss cur's buffer goes back before the caller
// decodes, so the decode can take it. A stream entering a frame plans
// the read-ahead past it.
func (pf *prefetcher) takeFrame(fr codec.FrameInfo, stream bool) (pr *prefetched, gen uint64) {
	pf.mu.Lock()
	for {
		if pr = pf.cur; pr != nil && pr.pos == fr.Pos {
			pr.c.pin() // cur's reference is held under mu, so refs > 0
			pf.mu.Unlock()
			return pr, 0
		}
		var ok bool
		if pr, ok = pf.ready[fr.Pos]; ok {
			pr.hit = true
			pf.removeLocked(fr.Pos)
			pr.c.pin()
			break
		}
		if !pf.awaitOrStealLocked(fr.Pos) {
			gen = pf.gen.Load()
			break
		}
	}
	// The cache's reference on a hit moves to cur.
	old := pf.cur
	pf.cur = pr
	pf.mu.Unlock()
	old.unpin()
	if pr != nil {
		pf.e.calls.prefetchHits.Add(1)
	} else {
		pf.e.calls.prefetchMisses.Add(1)
	}
	if stream {
		pf.schedule(fr.Header.Off+1, obs.SpanContext{})
	}
	return pr, gen
}

// keep makes pr, a frame a reader decoded itself after takeFrame missed
// under gen, the current frame, and returns it pinned for the caller's
// copy. If the generation moved meanwhile the frame is not kept — after a
// reset, positions restart from zero, so pos alone would alias old and
// new frames — and only the caller's pin remains.
func (pf *prefetcher) keep(pr *prefetched, gen uint64) *prefetched {
	pr.c.pin()
	old := pr
	pf.mu.Lock()
	if pf.gen.Load() == gen {
		old, pf.cur = pf.cur, pr
	}
	pf.mu.Unlock()
	old.unpin()
	return pr
}

// awaitOrStealLocked resolves a reader's encounter with a possibly
// pending key: no pending job means a miss (false); a started job
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

// prefetchJob is one read-ahead unit handed to the IO workers: one frame
// of a container to fetch and decode.
type prefetchJob struct {
	e   *fileEntry
	gen uint64          // prefetch generation at schedule time
	ps  *pendingFetch   // the job's pending marker; gone or replaced: the job was cancelled
	fr  codec.FrameInfo // the frame; its pos is the cache key

	enqueuedAt int64           // fs.monotonic() at enqueue (0: not stamped), for queue-wait dwell
	ctx        obs.SpanContext // parents the fetch span under the triggering read
}

// runPrefetch executes one job on an IO worker. The job first claims its
// pending marker (a reader may have stolen it while the job queued
// behind write chunks — then the fetch is skipped entirely); the fetch
// publishes only if the generation is unchanged (see the package
// comment).
func (fs *FS) runPrefetch(j prefetchJob) {
	if j.enqueuedAt != 0 {
		fs.hist.queueWaitPrefetch.Observe(fs.monotonic() - j.enqueuedAt)
	}
	key := j.fr.Pos
	var sp obs.Span
	if fs.tracer.Enabled() {
		sp = fs.tracer.StartChild("crfs.prefetch", j.ctx)
		sp.AttrInt("key", key)
		defer sp.End()
	}
	pf := j.e.pf
	pf.mu.Lock()
	if pf.pending[key] != j.ps {
		// Stolen by a reader, or invalidated while queued and perhaps
		// scheduled again: identity, not presence, is what the job claims.
		pf.mu.Unlock()
		return
	}
	j.ps.started = true
	pf.mu.Unlock()
	if pr, err := fs.fetchFrame(j.e.backendFile, j.fr); err != nil {
		pf.drop(key)
	} else {
		pf.publish(key, pr, j.gen)
	}
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
