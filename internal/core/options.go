// Package core implements CRFS, the Checkpoint-Restart Filesystem of
// Ouyang et al. (ICPP 2011), as a real, concurrent, stackable user-level
// filesystem library.
//
// CRFS mounts over any vfs.FS backend. It intercepts writes and aggregates
// them into large fixed-size chunks drawn from a bounded buffer pool; full
// chunks are handed to a work queue drained by a small pool of IO worker
// goroutines that issue large asynchronous writes to the backend, throttling
// backend concurrency (§IV of the paper). close() and fsync() block until
// every outstanding chunk of the file has landed. Metadata operations pass
// through, and with the default raw codec CRFS never changes file layout,
// so a file written through CRFS can be read directly from the backend
// after close. Reads through the mount are read-your-writes at all times:
// buffered and in-flight chunks are overlaid onto the durable bytes
// without draining the pipeline.
package core

import (
	"errors"
	"fmt"

	"crfs/internal/codec"
	"crfs/internal/obs"
)

// Defaults chosen by the paper's evaluation (§V-B): a 16 MB buffer pool of
// 4 MB chunks drained by 4 IO threads saturates a node's checkpoint streams
// while bounding memory. A restart stream reads 8 frames ahead.
const (
	DefaultBufferPoolSize = 16 << 20
	DefaultChunkSize      = 4 << 20
	DefaultIOThreads      = 4
	DefaultReadAhead      = 8
)

// Options configures a CRFS mount. The zero value selects the paper's
// defaults.
type Options struct {
	// BufferPoolSize is the total size in bytes of the chunk buffer pool
	// allocated at mount time. Defaults to 16 MB.
	BufferPoolSize int64
	// ChunkSize is the size in bytes of each aggregation chunk. Defaults
	// to 4 MB. The pool holds BufferPoolSize/ChunkSize chunks (at least
	// one).
	ChunkSize int64
	// IOThreads is the number of IO worker goroutines draining the work
	// queue; it throttles concurrent writes reaching the backend.
	// Defaults to 4.
	IOThreads int
	// ReadAhead is the depth of the restart read pipeline: a file handle
	// detected reading a frame container sequentially triggers prefetch
	// of the next ReadAhead frames, fetched and decoded in parallel on the
	// IO workers and served to subsequent reads from a per-file cache,
	// and a handle streaming any file in small reads serves them from a
	// short copy of what follows. A plain file's reads otherwise go
	// straight to the backend, which reads ahead by itself. Defaults to 8
	// frames. A decoded frame stays valid until its container resets (a
	// write appends a new frame, which reads apply over the older ones),
	// and buffered writes always shadow it (the overlay-wins rule), so the
	// depth never changes read results — only their cost.
	ReadAhead int
	// Codec selects the chunk codec IO workers apply before the backend
	// write. nil or the raw codec selects passthrough: chunks land
	// verbatim at their file offsets and backend output is byte-identical
	// to a codec-less mount. Any other codec makes each file written
	// through the mount a self-describing frame container (see
	// internal/codec): chunks are encoded in parallel on the IO workers,
	// incompressible chunks fall back to raw frames, and reads through
	// any CRFS mount decode containers transparently.
	Codec codec.Codec
	// Tracer receives the mount's pipeline spans (write/read/sync, chunk
	// seal, encode, backend write, prefetch). nil selects
	// the process-wide obs.Default tracer, which starts disabled — the
	// per-span cost is then one atomic load. Latency histograms are
	// independent of the tracer and always on.
	Tracer *obs.Tracer
}

// framedWrites reports whether new files are written as frame containers.
func (o Options) framedWrites() bool {
	return o.Codec != nil && o.Codec.ID() != codec.RawID
}

func (o Options) withDefaults() (Options, error) {
	if o.BufferPoolSize == 0 {
		o.BufferPoolSize = DefaultBufferPoolSize
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.IOThreads == 0 {
		o.IOThreads = DefaultIOThreads
	}
	if o.ReadAhead == 0 {
		o.ReadAhead = DefaultReadAhead
	}
	if o.Codec == nil {
		o.Codec = codec.Raw()
	}
	if o.BufferPoolSize < 0 || o.ChunkSize <= 0 || o.IOThreads < 0 || o.ReadAhead < 0 {
		return o, fmt.Errorf("core: invalid options %+v: %w", o, errInvalidOptions)
	}
	return o, nil
}

var errInvalidOptions = errors.New("invalid mount options")
