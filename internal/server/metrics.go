package server

import (
	"net/http"

	"crfs/internal/metrics"
)

// Metrics renders the mount's full Stats tree plus the server's own
// connection counters as Prometheus samples. Entries tagged WithStat
// are the single registry behind both the Prometheus exposition and
// the one-line STAT response (see statLine), so the two views can
// never drift apart.
func (s *Server) Metrics() []metrics.PromMetric {
	st := s.fs.Stats()
	sv := s.Stats()
	return []metrics.PromMetric{
		// Mount: write aggregation.
		metrics.Counter("crfs_opens_total", "Open calls that returned successfully.", st.Opens),
		metrics.Counter("crfs_writes_total", "Application WriteAt calls absorbed by aggregation.", st.Writes).WithStat("writes"),
		metrics.Counter("crfs_reads_total", "Application ReadAt calls.", st.Reads),
		metrics.Counter("crfs_syncs_total", "Application Sync calls.", st.Syncs),
		metrics.Counter("crfs_bytes_written_total", "Payload bytes accepted from writers.", st.BytesWritten).WithStat("bytes"),
		metrics.Counter("crfs_bytes_read_total", "Payload bytes returned to readers.", st.BytesRead),
		metrics.Counter("crfs_chunks_flushed_total", "Chunks handed to the IO work queue.", st.ChunksFlushed),
		metrics.Counter("crfs_backend_writes_total", "WriteAt calls issued to the backend by IO workers.", st.BackendWrites).WithStat("backend"),
		metrics.Counter("crfs_backend_bytes_total", "Bytes written to the backend.", st.BackendBytes),
		metrics.Counter("crfs_pool_waits_total", "Chunk allocations that blocked on the pool (backpressure).", st.PoolWaits).WithStat("poolwaits"),
		metrics.Gauge("crfs_aggregation_ratio", "Application writes per backend write.", st.AggregationRatio()).WithStat("ratio"),
		// Mount: codec.
		metrics.Counter("crfs_codec_bytes_in_total", "Raw chunk bytes handed to the codec.", st.CodecBytesIn).WithStat("codec_in"),
		metrics.Counter("crfs_codec_bytes_out_total", "Framed bytes written to the backend.", st.CodecBytesOut).WithStat("codec_out"),
		metrics.Counter("crfs_frames_total", "Frames appended to containers.", st.Frames),
		metrics.Counter("crfs_raw_frames_total", "Frames stored raw by the incompressible-data bailout.", st.RawFrames),
		metrics.Gauge("crfs_compression_ratio", "Raw bytes per framed backend byte.", st.CompressionRatio()).WithStat("codec_ratio"),
		// Mount: read path and prefetch.
		metrics.Counter("crfs_reads_from_buffer_total", "ReadAt calls served at least partially from buffered data.", st.ReadsFromBuffer),
		metrics.Counter("crfs_read_drains_avoided_total", "Reads that arrived while the pipeline was dirty and did not stall.", st.ReadDrainsAvoided),
		metrics.Counter("crfs_prefetch_hits_total", "Container frames served from the read-ahead cache.", st.PrefetchHits),
		metrics.Counter("crfs_prefetch_misses_total", "Container frames a read fetched and decoded itself.", st.PrefetchMisses),
		metrics.Counter("crfs_prefetch_wasted_total", "Prefetched frames discarded unread.", st.PrefetchWasted),
		metrics.Counter("crfs_prefetch_bytes_total", "Decoded bytes published into read-ahead caches.", st.PrefetchedBytes),
		metrics.Counter("crfs_decode_heap_fallbacks_total", "Frames decoded into fresh memory because the decode free list was empty or the frame exceeds a chunk.", st.DecodeHeapFallbacks).WithStat("decode_heap_fallbacks"),
		// Mount: recovery.
		metrics.Counter("crfs_failed_chunks_total", "Aggregation chunks whose backend write failed.", st.FailedChunks).WithStat("failed_chunks"),
		metrics.Counter("crfs_containers_scanned_total", "Opens that probed a frame container.", st.ContainersScanned).WithStat("scanned"),
		metrics.Counter("crfs_containers_salvaged_total", "Containers whose torn tail was dropped at open.", st.ContainersSalvaged).WithStat("salvaged"),
		metrics.Counter("crfs_salvage_frames_dropped_total", "Frames lost past the tears of salvaged containers.", st.SalvageFramesDropped).WithStat("salvage_frames_dropped"),
		metrics.Counter("crfs_salvage_bytes_truncated_total", "Container bytes dropped past intact prefixes.", st.SalvageBytesTruncated).WithStat("salvage_bytes_truncated"),
		// SCRUB passes over the mount's backend (server counters).
		metrics.Counter("crfs_frames_verified_total", "Frames decode-verified intact by SCRUB passes.", sv.FramesVerified).WithStat("frames_verified"),
		metrics.Counter("crfs_scrub_corruptions_total", "Frames that failed SCRUB verification.", sv.ScrubCorruptions).WithStat("scrub_corruptions"),
		// Mount: integrity.
		metrics.Counter("crfs_checksum_verified_total", "Frame payloads whose CRC32-C matched when the mount decoded them (SCRUB not included).", st.ChecksumVerified).WithStat("checksum_verified"),
		metrics.Counter("crfs_checksum_failed_total", "Frame payloads the mount decoded that failed their checksum (proven bit rot; SCRUB not included).", st.ChecksumFailed).WithStat("checksum_failed"),
		// Tracing: the span ring's own losses.
		metrics.Counter("crfs_trace_spans_overwritten_total", "Finished spans the full trace ring overwrote; a trace dump may be missing them.", s.tracer.Overwritten()),
		// Server.
		metrics.Counter("crfsd_conns_accepted_total", "Accepted connections.", sv.ConnsAccepted),
		metrics.Gauge("crfsd_conns_active", "Connections currently being served.", float64(sv.ConnsActive)),
		metrics.Counter("crfsd_accept_retries_total", "Accept-loop errors survived with backoff.", sv.AcceptRetries),
		metrics.Counter("crfsd_requests_total", "Requests started, any verb.", sv.Requests),
		metrics.Counter("crfsd_request_errors_total", "Requests that failed with an error response.", sv.RequestErrors),
		metrics.Counter("crfsd_protocol_errors_total", "Connections torn down for wire violations.", sv.ProtocolErrors),
		metrics.Counter("crfsd_inflight_capped_total", "Requests rejected by the per-client in-flight cap.", sv.InFlightCapped),
		metrics.Counter("crfsd_puts_committed_total", "PUTs whose staged file was renamed visible.", sv.PutsCommitted),
		metrics.Counter("crfsd_puts_aborted_total", "PUTs whose staging temp was discarded.", sv.PutsAborted),
		metrics.Counter("crfsd_gets_served_total", "GETs streamed to completion.", sv.GetsServed),
		metrics.Counter("crfsd_bytes_in_total", "Body payload bytes received from clients.", sv.BytesIn),
		metrics.Counter("crfsd_bytes_out_total", "Body payload bytes sent to clients.", sv.BytesOut),
		metrics.Counter("crfsd_staging_sweeps_total", "Staging-sweep passes run (startup, drain).", sv.SweepsRun),
		metrics.Counter("crfsd_staging_temps_removed_total", "Stale PUT staging temps removed by sweeps.", sv.SweepTempsRemoved),
	}
}

// Histograms renders the mount's pipeline latency/size distributions
// plus the server's own request latencies as Prometheus histograms.
func (s *Server) Histograms() []metrics.PromHistogram {
	return append(s.fs.PromHistograms(),
		metrics.PromHistogramOf("crfsd_put_latency_seconds", "End-to-end PUT handling latency (body stream to commit).", s.putSeconds, 1e9),
		metrics.PromHistogramOf("crfsd_get_latency_seconds", "End-to-end GET handling latency (open to last byte).", s.getSeconds, 1e9))
}

// MetricsHandler serves the Prometheus text exposition of Metrics and
// Histograms.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WritePrometheus(w, s.Metrics(), s.Histograms())
	})
}
