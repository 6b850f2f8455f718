package core

import (
	"crfs/internal/metrics"
	"crfs/internal/obs"
)

// fsHistograms are the mount's always-on latency/size histograms of the
// per-chunk and per-operation stages the ICPP'11 write path (and our
// restart read path) flows through; the two per-call ones (WriteAt,
// ReadAt) live in the per-entry callShard. All are lock-free
// (obs.Histogram); an observation costs two monotonic clock reads and
// three atomic adds, which is the entire overhead budget of leaving them
// unconditionally enabled. That is paid per chunk, block or operation
// here, and per sampled call — one in callSampleStride — for the two
// per-call histograms, where it would otherwise rival a small call's copy.
type fsHistograms struct {
	sync              *obs.Histogram // Sync call latency (drain + backend fsync)
	encode            *obs.Histogram // codec frame encode latency
	backendWrite      *obs.Histogram // backend WriteAt latency per chunk/frame
	frameBytes        *obs.Histogram // encoded frame size on the backend
	queueWaitWrite    *obs.Histogram // chunk dwell in the write queue (enqueue → worker pickup)
	queueWaitPrefetch *obs.Histogram // read-ahead job dwell in the prefetch queue
}

func newFSHistograms() *fsHistograms {
	lat := func() *obs.Histogram { return obs.NewHistogram(obs.LatencyBounds) }
	return &fsHistograms{
		sync:              lat(),
		encode:            lat(),
		backendWrite:      lat(),
		frameBytes:        obs.NewHistogram(obs.SizeBounds),
		queueWaitWrite:    lat(),
		queueWaitPrefetch: lat(),
	}
}

// Tracer returns the mount's span tracer (Options.Tracer, or the
// process default).
func (fs *FS) Tracer() *obs.Tracer { return fs.tracer }

// PromHistograms renders the mount's stage histograms for the
// Prometheus text exposition. Latencies are exported in seconds (the
// Prometheus base unit), sizes in bytes.
func (fs *FS) PromHistograms() []metrics.PromHistogram {
	h, calls := fs.hist, fs.callTotals()
	const ns = 1e9
	return []metrics.PromHistogram{
		metrics.PromHistogramOf("crfs_write_latency_seconds", "WriteAt call latency, one call in 61 per open file: aggregation copy plus any buffer-pool stall.", calls.writeAt, ns),
		metrics.PromHistogramOf("crfs_read_latency_seconds", "ReadAt call latency, one call in 61 per open file, through the buffered-read-through overlay.", calls.readAt, ns),
		metrics.PromHistogramOf("crfs_sync_latency_seconds", "Sync call latency: pipeline drain plus backend fsync.", h.sync, ns),
		metrics.PromHistogramOf("crfs_encode_latency_seconds", "Codec frame encode latency on the IO workers.", h.encode, ns),
		metrics.PromHistogramOf("crfs_backend_write_latency_seconds", "Backend WriteAt latency per chunk or frame.", h.backendWrite, ns),
		metrics.PromHistogramOf("crfs_frame_bytes", "Encoded frame size as appended to containers.", h.frameBytes, 1),
		metrics.PromHistogramOf("crfs_queue_wait_write_seconds", "Chunk dwell time in the write queue before an IO worker picks it up.", h.queueWaitWrite, ns),
		metrics.PromHistogramOf("crfs_queue_wait_prefetch_seconds", "Read-ahead job dwell time in the prefetch queue.", h.queueWaitPrefetch, ns),
	}
}
