package core

import (
	"errors"
	"sync/atomic"

	"crfs/internal/codec"
	"crfs/internal/obs"
)

// callShard holds everything that is bumped by application WriteAt and
// ReadAt calls: the per-call counters, bumped on every call, and the two
// call-latency histograms, which observe one call in callSampleStride (the
// call whose shard count before it is a multiple of the stride, so a
// shard's first call is always timed). Each open-file entry owns one, so
// the callers of two files never write the same cache line (with one
// mount-wide set, two 512 B writers on two cores spent more time passing
// those lines back and forth than copying). Nothing is lost to the
// sharding: callTotals sums the live shards and the fold of the closed
// ones at read time, so every counter is exact at every read, and each
// histogram count is the sum of its shards' sampled calls.
type callShard struct {
	writes         atomic.Int64
	bytesWritten   atomic.Int64
	reads          atomic.Int64
	bytesRead      atomic.Int64
	prefetchHits   atomic.Int64
	prefetchMisses atomic.Int64

	writeAt *obs.Histogram // sampled WriteAt call latency (aggregation + any pool stall)
	readAt  *obs.Histogram // sampled ReadAt call latency (overlay + decode + backend)
}

func newCallShard() *callShard {
	return &callShard{
		writeAt: obs.NewHistogram(obs.LatencyBounds),
		readAt:  obs.NewHistogram(obs.LatencyBounds),
	}
}

// merge adds o into s.
func (s *callShard) merge(o *callShard) {
	s.writes.Add(o.writes.Load())
	s.bytesWritten.Add(o.bytesWritten.Load())
	s.reads.Add(o.reads.Load())
	s.bytesRead.Add(o.bytesRead.Load())
	s.prefetchHits.Add(o.prefetchHits.Load())
	s.prefetchMisses.Add(o.prefetchMisses.Load())
	s.writeAt.Merge(o.writeAt)
	s.readAt.Merge(o.readAt)
}

// callTotals sums the per-call shards: that of every live entry (open, or
// unlinked from the table by Remove or Unmount but not yet closed) plus
// the fold of the entries that closed. An entry joins fs.live and leaves
// it for the fold under fs.mu, so a shard is counted exactly once at every
// instant.
func (fs *FS) callTotals() *callShard {
	total := newCallShard()
	fs.mu.Lock()
	total.merge(fs.closedCalls)
	for e := range fs.live {
		total.merge(e.calls)
	}
	fs.mu.Unlock()
	return total
}

// statCounters aggregates the mount-wide activity that is bumped per
// chunk, block or operation — not per call, see callShard — with atomics,
// so no path takes a statistics lock.
type statCounters struct {
	opens         atomic.Int64
	syncs         atomic.Int64
	chunksFlushed atomic.Int64
	backendWrites atomic.Int64
	backendBytes  atomic.Int64
	queueDepth    atomic.Int64
	codecBytesIn  atomic.Int64
	codecBytesOut atomic.Int64
	frames        atomic.Int64
	rawFrames     atomic.Int64

	readsFromBuffer   atomic.Int64
	readDrainsAvoided atomic.Int64

	failedChunks          atomic.Int64
	containersScanned     atomic.Int64
	containersSalvaged    atomic.Int64
	containersRepaired    atomic.Int64
	salvageFramesDropped  atomic.Int64
	salvageBytesTruncated atomic.Int64

	prefetchWasted atomic.Int64
	prefetchBytes  atomic.Int64

	decodeHeapFallbacks atomic.Int64

	checksumVerified atomic.Int64
	checksumFailed   atomic.Int64
}

// checksumResult classifies one frame decode for the integrity counters:
// a payload that matched its CRC32-C, or one that failed it.
func (c *statCounters) checksumResult(err error) {
	switch {
	case err == nil:
		c.checksumVerified.Add(1)
	case errors.Is(err, codec.ErrChecksum):
		c.checksumFailed.Add(1)
	}
}

// Stats is a point-in-time snapshot of a mount's activity. It quantifies
// the paper's aggregation effect: Writes (application write calls) versus
// BackendWrites (large chunk writes reaching the backing filesystem).
type Stats struct {
	// Opens counts Open calls that returned successfully.
	Opens int64
	// Writes counts application WriteAt calls absorbed by aggregation.
	Writes int64
	// Reads counts application ReadAt calls (served by the
	// buffered-read-through overlay) and
	// ranges sent by descriptor (ReadFD).
	Reads int64
	// Syncs counts application Sync calls.
	Syncs int64
	// BytesWritten is the total payload accepted from writers.
	BytesWritten int64
	// BytesRead is the total payload returned to readers.
	BytesRead int64
	// ChunksFlushed counts chunks handed to the work queue.
	ChunksFlushed int64
	// BackendWrites counts WriteAt calls issued to the backend by IO
	// workers; the aggregation ratio is Writes / BackendWrites.
	BackendWrites int64
	// BackendBytes is the total bytes written to the backend.
	BackendBytes int64
	// PoolWaits counts chunk allocations that had to block on the pool —
	// the backpressure signal that aggregation outran the IO threads.
	PoolWaits int64
	// CodecBytesIn is the raw chunk bytes handed to the codec by IO
	// workers (framed entries only).
	CodecBytesIn int64
	// CodecBytesOut is the framed bytes (headers plus encoded payloads)
	// those chunks became on the backend.
	CodecBytesOut int64
	// Frames counts frames appended to containers.
	Frames int64
	// RawFrames counts frames stored raw by the incompressible-data
	// bailout (or because the mount's codec is raw).
	RawFrames int64
	// ReadsFromBuffer counts ReadAt calls served at least partially from
	// buffered data (the active partial chunk or in-flight chunks) by the
	// buffered-read-through overlay.
	ReadsFromBuffer int64
	// ReadDrainsAvoided counts ReadAt calls that arrived while the file's
	// pipeline was dirty (buffered or in-flight chunks outstanding) —
	// each one is a read that the drain-based path would have stalled on.
	ReadDrainsAvoided int64
	// PrefetchHits counts container frames a read took from the
	// read-ahead cache. A plain file has no read-ahead cache: its base
	// reads go straight to the backend and count neither way.
	PrefetchHits int64
	// PrefetchMisses counts container frames a read looked for in the
	// read-ahead cache and then fetched and decoded itself.
	PrefetchMisses int64
	// PrefetchWasted counts prefetched frames discarded unread —
	// invalidated by a truncate, reset, rename, last close or Unmount,
	// evicted by capacity or a seek, or fetched by a job whose generation
	// went stale before publish. A write wastes none.
	PrefetchWasted int64
	// PrefetchedBytes is the total decoded bytes published into
	// read-ahead caches.
	PrefetchedBytes int64
	// DecodeHeapFallbacks counts frames decoded into freshly allocated
	// memory rather than a recycled decode buffer: the mount's free list
	// had none idle (its first restores, or more frames decoded and not
	// yet read than it keeps), or the frame is larger than the mount's
	// ChunkSize. Warm restores should leave it where it is.
	DecodeHeapFallbacks int64
	// FailedChunks counts aggregation chunks whose backend write failed;
	// each failure is reported to the application exactly once, at the
	// next Sync or Close of the file.
	FailedChunks int64
	// ContainersScanned counts opens that probed a frame container
	// (the magic matched and an index scan ran).
	ContainersScanned int64
	// ContainersSalvaged counts containers whose torn tail was dropped at
	// open, with reads served from the longest intact frame prefix.
	ContainersSalvaged int64
	// ContainersRepaired counts salvaged containers whose backend file
	// was truncated to the intact prefix by a writable open.
	ContainersRepaired int64
	// SalvageFramesDropped is the best-effort count of frames lost past
	// the tears of salvaged containers.
	SalvageFramesDropped int64
	// SalvageBytesTruncated is the container bytes dropped past the
	// intact prefixes of salvaged containers.
	SalvageBytesTruncated int64
	// ChecksumVerified counts frame payloads whose CRC32-C matched at
	// decode time on the mount's own decode paths: reads, prefetch and
	// open-time salvage. A scrub (crfsck, crfsd's SCRUB) runs beside the
	// mount over its backend and is not counted here.
	ChecksumVerified int64
	// ChecksumFailed counts payloads that decoded to the declared length
	// but failed their checksum — proven bit rot surfaced as ErrChecksum
	// rather than served — on the same paths; scrub failures are not
	// counted here either.
	ChecksumFailed int64
}

// AggregationRatio returns application writes per backend write, the
// paper's headline effect (many small writes become few large ones).
func (s Stats) AggregationRatio() float64 {
	if s.BackendWrites == 0 {
		return 0
	}
	return float64(s.Writes) / float64(s.BackendWrites)
}

// CompressionRatio returns raw bytes per framed backend byte — the codec
// subsystem's IO-volume saving. 0 means no frames were written.
func (s Stats) CompressionRatio() float64 {
	if s.CodecBytesOut == 0 {
		return 0
	}
	return float64(s.CodecBytesIn) / float64(s.CodecBytesOut)
}

// Stats returns a snapshot of the mount's counters.
func (fs *FS) Stats() Stats {
	calls := fs.callTotals()
	return Stats{
		Opens:             fs.stats.opens.Load(),
		Writes:            calls.writes.Load(),
		Reads:             calls.reads.Load(),
		Syncs:             fs.stats.syncs.Load(),
		BytesWritten:      calls.bytesWritten.Load(),
		BytesRead:         calls.bytesRead.Load(),
		ChunksFlushed:     fs.stats.chunksFlushed.Load(),
		BackendWrites:     fs.stats.backendWrites.Load(),
		BackendBytes:      fs.stats.backendBytes.Load(),
		PoolWaits:         fs.pool.waits.Load(),
		CodecBytesIn:      fs.stats.codecBytesIn.Load(),
		CodecBytesOut:     fs.stats.codecBytesOut.Load(),
		Frames:            fs.stats.frames.Load(),
		RawFrames:         fs.stats.rawFrames.Load(),
		ReadsFromBuffer:   fs.stats.readsFromBuffer.Load(),
		ReadDrainsAvoided: fs.stats.readDrainsAvoided.Load(),
		PrefetchHits:      calls.prefetchHits.Load(),
		PrefetchMisses:    calls.prefetchMisses.Load(),
		PrefetchWasted:    fs.stats.prefetchWasted.Load(),
		PrefetchedBytes:   fs.stats.prefetchBytes.Load(),

		DecodeHeapFallbacks: fs.stats.decodeHeapFallbacks.Load(),

		FailedChunks:          fs.stats.failedChunks.Load(),
		ContainersScanned:     fs.stats.containersScanned.Load(),
		ContainersSalvaged:    fs.stats.containersSalvaged.Load(),
		ContainersRepaired:    fs.stats.containersRepaired.Load(),
		SalvageFramesDropped:  fs.stats.salvageFramesDropped.Load(),
		SalvageBytesTruncated: fs.stats.salvageBytesTruncated.Load(),

		ChecksumVerified: fs.stats.checksumVerified.Load(),
		ChecksumFailed:   fs.stats.checksumFailed.Load(),
	}
}
