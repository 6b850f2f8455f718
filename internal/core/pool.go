package core

import (
	"sync/atomic"
	"time"

	"crfs/internal/obs"
)

// chunk is one buffer-pool chunk. While active it accumulates a contiguous
// extent of exactly one file; on flush it carries the metadata the IO
// thread needs (§IV-B: "Each chunk is tagged with ... target file handler,
// offset into the file, valid data size").
//
// A chunk's payload is append-only: bytes below fill are never rewritten,
// and fill is published with an atomic store *after* the copy lands, so a
// reader that loads fill sees fully written bytes. Readers serving the
// buffered-read-through path pin the chunk (a refcount) while copying from
// it; the buffer returns to the pool only when the IO worker's pipeline
// reference and every reader pin are gone.
type chunk struct {
	buf   []byte
	pool  *bufferPool
	entry *fileEntry   // target file; nil while free
	start int64        // offset of buf[0] in the target file
	fill  atomic.Int64 // valid bytes in buf; store-release after the copy
	seq   uint64       // flush-order frame sequence (assigned at enqueue)

	// refs counts reasons the buffer must stay alive: one pipeline
	// reference from get() to the chunk's retirement from its entry's
	// in-flight list, plus one per reader currently copying from the
	// chunk. The last unpin recycles the buffer into the pool.
	refs atomic.Int32

	// done marks the backend write complete (guarded by entry.mu). A
	// done chunk stays on the in-flight list until every lower-seq chunk
	// of the entry is also done, so overlay readers always apply
	// overlapping chunks in write order even when IO workers complete
	// them out of order.
	done bool

	// enqueuedAt (fs.monotonic(), 0 while not stamped) stamps the hand-off
	// to the work queue so the draining worker can observe queue dwell
	// time on the clock that never steps; ctx parents the
	// chunk's pipeline spans under the write that sealed it. Both are
	// written before enqueue and read only by the draining worker.
	enqueuedAt int64
	ctx        obs.SpanContext
}

func (c *chunk) reset() {
	c.entry = nil
	c.start = 0
	c.fill.Store(0)
	c.seq = 0
	c.done = false
	c.enqueuedAt = 0
	c.ctx = obs.SpanContext{}
}

// pin takes a reader reference. Callers must guarantee the chunk is still
// reachable from its entry (hold entry.mu while it is the active chunk or
// on the in-flight list, decMu or the prefetcher's mutex while a cache of
// the read path holds it): reachability implies the owner's reference is
// still held, so refs cannot concurrently hit zero. A nil chunk stands for
// a heap slice (a decoded frame larger than a chunk): nothing to pin.
func (c *chunk) pin() {
	if c != nil {
		c.refs.Add(1)
	}
}

// unpin drops a reference; the last one recycles the chunk.
func (c *chunk) unpin() {
	if c != nil && c.refs.Add(-1) == 0 {
		c.pool.put(c)
	}
}

// bufferPool is the mount-time pool of fixed-size chunks (§IV-B). Get
// blocks while the pool is empty, which is exactly the paper's
// backpressure: writers stall when aggregation outruns the IO threads.
type bufferPool struct {
	free      chan *chunk
	chunkSize int64
	total     int
	waits     atomic.Int64 // Get calls that had to block

	// reclaim is what a blocked get runs every reclaimTick (the mount's
	// reclaimPool). skip is the blocked writer's own entry, whose writeMu
	// it holds.
	reclaim func(skip *fileEntry)
}

// reclaimTick is how often a writer blocked on the pool re-runs reclaim.
// A freed chunk wakes the writer at once; the tick only exists because
// what reclaim could free may appear after the writer blocked (another
// file's writer leaves a partial chunk behind and goes quiet).
const reclaimTick = 200 * time.Microsecond

func newBufferPool(poolSize, chunkSize int64, reclaim func(skip *fileEntry)) *bufferPool {
	n := int(poolSize / chunkSize)
	if n < 1 {
		n = 1
	}
	p := &bufferPool{
		free:      make(chan *chunk, n),
		chunkSize: chunkSize,
		total:     n,
		reclaim:   reclaim,
	}
	for i := 0; i < n; i++ {
		p.free <- &chunk{buf: make([]byte, chunkSize), pool: p}
	}
	return p
}

// get returns a free chunk holding its pipeline reference, blocking on
// the free list until one is available. While blocked it runs reclaim on
// every tick of one timer: with more concurrently written files than pool
// chunks, every chunk can be pinned as some file's partial buffer, and
// without reclamation writers would deadlock (a corner the paper's design
// leaves open).
func (p *bufferPool) get(skip *fileEntry) *chunk {
	if c := p.tryGet(); c != nil {
		return c
	}
	p.waits.Add(1)
	tick := time.NewTimer(reclaimTick)
	defer tick.Stop()
	for {
		select {
		case c := <-p.free:
			c.refs.Store(1)
			return c
		case <-tick.C:
			p.reclaim(skip)
			tick.Reset(reclaimTick)
		}
	}
}

// tryGet returns a free chunk holding its pipeline reference, or nil if
// the pool is empty. The read-ahead path uses it so prefetch can never
// stall (or deadlock against) a writer blocked in get.
func (p *bufferPool) tryGet() *chunk {
	select {
	case c := <-p.free:
		c.refs.Store(1)
		return c
	default:
		return nil
	}
}

// poisonChunks makes put overwrite every recycled buffer, so a reader
// that kept copying from a chunk after its last pin was dropped sees 0xDB
// instead of plausible bytes. Tests set it.
var poisonChunks atomic.Bool

// put returns a chunk to the pool. It never blocks: the pool's capacity
// equals the number of chunks in existence, and a free list (newFreeList)
// that is full leaves the chunk to the collector. Callers release chunks
// via unpin; put is only called once refs reached zero.
func (p *bufferPool) put(c *chunk) {
	c.reset()
	if poisonChunks.Load() {
		c.buf[0] = 0xDB
		for n := 1; n < len(c.buf); n *= 2 {
			copy(c.buf[n:], c.buf[:n])
		}
	}
	select {
	case p.free <- c:
	default:
	}
}

// newFreeList returns a bufferPool that owns no fixed set of chunks: take
// allocates one when none is idle, and put keeps at most keep of them
// idle. The mount's decode buffers live in one (FS.decBufs): they are
// recycled like pool chunks, by the last unpin, but nobody ever waits for
// one, so they are not the write path's to run short of.
func newFreeList(keep int, chunkSize int64) *bufferPool {
	return &bufferPool{free: make(chan *chunk, keep), chunkSize: chunkSize}
}

// take returns an idle chunk of a free list, or a new one when none is
// idle (fresh reports which), holding one reference either way.
func (p *bufferPool) take() (c *chunk, fresh bool) {
	if c = p.tryGet(); c != nil {
		return c, false
	}
	c = &chunk{buf: make([]byte, p.chunkSize), pool: p}
	c.refs.Store(1)
	return c, true
}
