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
// unconditionally enabled.
type fsHistograms struct {
	sync              *obs.Histogram // Sync call latency (drain + backend fsync)
	encode            *obs.Histogram // codec frame encode latency
	backendWrite      *obs.Histogram // backend WriteAt latency per chunk/frame
	frameBytes        *obs.Histogram // encoded frame size on the backend
	queueWaitWrite    *obs.Histogram // chunk dwell in the write queue (enqueue → worker pickup)
	queueWaitPrefetch *obs.Histogram // read-ahead job dwell in the prefetch queue
	queueWaitJob      *obs.Histogram // maintenance job dwell in the job queue
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
		queueWaitJob:      lat(),
	}
}

// Tracer returns the mount's span tracer (Options.Tracer, or the
// process default).
func (fs *FS) Tracer() *obs.Tracer { return fs.tracer }

// promHistogram converts one latency/size histogram to its exposition
// form. scale divides raw observed values into the exported unit
// (1e9 for ns→seconds, 1 for bytes).
func promHistogram(name, help string, h *obs.Histogram, scale float64) metrics.PromHistogram {
	s := h.Snapshot()
	out := metrics.PromHistogram{
		Name:   name,
		Help:   help,
		Bounds: make([]float64, len(s.Bounds)),
		Counts: make([]uint64, len(s.Counts)),
		Sum:    float64(s.Sum) / scale,
		Count:  uint64(s.Count),
	}
	for i, b := range s.Bounds {
		out.Bounds[i] = float64(b) / scale
	}
	for i, c := range s.Counts {
		out.Counts[i] = uint64(c)
	}
	return out
}

// PromHistograms renders the mount's stage histograms for the
// Prometheus text exposition. Latencies are exported in seconds (the
// Prometheus base unit), sizes in bytes.
func (fs *FS) PromHistograms() []metrics.PromHistogram {
	h, calls := fs.hist, fs.callTotals()
	const ns = 1e9
	return []metrics.PromHistogram{
		promHistogram("crfs_write_latency_seconds", "WriteAt call latency: aggregation copy plus any buffer-pool stall.", calls.writeAt, ns),
		promHistogram("crfs_read_latency_seconds", "ReadAt call latency through the buffered-read-through overlay.", calls.readAt, ns),
		promHistogram("crfs_sync_latency_seconds", "Sync call latency: pipeline drain plus backend fsync.", h.sync, ns),
		promHistogram("crfs_encode_latency_seconds", "Codec frame encode latency on the IO workers.", h.encode, ns),
		promHistogram("crfs_backend_write_latency_seconds", "Backend WriteAt latency per chunk or frame.", h.backendWrite, ns),
		promHistogram("crfs_frame_bytes", "Encoded frame size as appended to containers.", h.frameBytes, 1),
		promHistogram("crfs_queue_wait_write_seconds", "Chunk dwell time in the write queue before an IO worker picks it up.", h.queueWaitWrite, ns),
		promHistogram("crfs_queue_wait_prefetch_seconds", "Read-ahead job dwell time in the prefetch queue.", h.queueWaitPrefetch, ns),
		promHistogram("crfs_queue_wait_job_seconds", "Maintenance job dwell time in the background job queue.", h.queueWaitJob, ns),
	}
}

// Histograms exposes the stage histograms for in-process consumers
// (crfsbench percentiles) keyed by stage name.
func (fs *FS) Histograms() map[string]obs.HistogramSnapshot {
	h, calls := fs.hist, fs.callTotals()
	return map[string]obs.HistogramSnapshot{
		"write_at":            calls.writeAt.Snapshot(),
		"read_at":             calls.readAt.Snapshot(),
		"sync":                h.sync.Snapshot(),
		"encode":              h.encode.Snapshot(),
		"backend_write":       h.backendWrite.Snapshot(),
		"frame_bytes":         h.frameBytes.Snapshot(),
		"queue_wait_write":    h.queueWaitWrite.Snapshot(),
		"queue_wait_prefetch": h.queueWaitPrefetch.Snapshot(),
		"queue_wait_job":      h.queueWaitJob.Snapshot(),
	}
}
