// Package chunker implements CRFS's write-aggregation policy (§IV-B of the
// paper) as a pure state machine, independent of buffers, threads, and
// clocks.
//
// Per open file, CRFS keeps at most one active buffer chunk. Incoming
// writes are copied to the chunk's append point; when the chunk fills it is
// flushed (enqueued to the work queue) and a fresh chunk is allocated.
// Checkpoint streams are sequential, so consecutive writes normally land on
// the append point; a non-contiguous write forces an early flush so that a
// chunk always describes one contiguous file extent.
//
// Both the real concurrent CRFS (internal/core) and the virtual-time CRFS
// (internal/simcrfs) drive this state machine, which lets tests assert that
// the two produce byte-identical backend write sequences.
package chunker

import "fmt"

// OpKind discriminates the operations an aggregator emits.
type OpKind int

// Operations, in the order a caller must apply them.
const (
	// OpNewChunk directs the caller to allocate a fresh buffer chunk
	// (blocking on the buffer pool if necessary).
	OpNewChunk OpKind = iota
	// OpCopy directs the caller to copy N bytes of the current write's
	// payload (starting at payload offset Src) into the active chunk at
	// chunk offset Pos. The data corresponds to file offset Off.
	OpCopy
	// OpFlush directs the caller to hand the active chunk, holding the
	// file extent [Start, Start+Fill), to the work queue.
	OpFlush
)

// Op is one step emitted by the aggregator.
type Op struct {
	Kind OpKind
	// OpCopy fields.
	Off int64 // file offset the copied bytes belong to
	Src int64 // offset within the incoming write payload
	N   int64 // byte count to copy
	Pos int64 // destination offset within the active chunk
	// OpFlush fields.
	Start int64 // file offset of the chunk's first byte
	Fill  int64 // valid bytes in the chunk
}

func (o Op) String() string {
	switch o.Kind {
	case OpNewChunk:
		return "new-chunk"
	case OpCopy:
		return fmt.Sprintf("copy off=%d src=%d n=%d pos=%d", o.Off, o.Src, o.N, o.Pos)
	case OpFlush:
		return fmt.Sprintf("flush start=%d fill=%d", o.Start, o.Fill)
	default:
		return fmt.Sprintf("op(%d)", int(o.Kind))
	}
}

// FileAgg aggregates the write stream of a single open file. The zero
// value is invalid; use NewFileAgg.
type FileAgg struct {
	chunkSize int64
	active    bool
	start     int64 // file offset of the active chunk's first byte
	fill      int64 // bytes currently buffered in the active chunk
}

// NewFileAgg returns an aggregator producing chunks of at most chunkSize
// bytes. chunkSize must be positive.
func NewFileAgg(chunkSize int64) *FileAgg {
	if chunkSize <= 0 {
		panic(fmt.Sprintf("chunker: invalid chunk size %d", chunkSize))
	}
	return &FileAgg{chunkSize: chunkSize}
}

// ChunkSize returns the configured chunk size.
func (a *FileAgg) ChunkSize() int64 { return a.chunkSize }

// Active reports whether a partially filled chunk is buffered.
func (a *FileAgg) Active() bool { return a.active && a.fill > 0 }

// Write feeds a positional write of n bytes at file offset off and appends
// the resulting operations to ops, returning the extended slice. n == 0
// produces no operations.
func (a *FileAgg) Write(off, n int64, ops []Op) []Op {
	if off < 0 || n < 0 {
		panic(fmt.Sprintf("chunker: invalid write off=%d n=%d", off, n))
	}
	var src int64
	for n > 0 {
		if a.active && off != a.start+a.fill {
			// Non-sequential write: seal the current extent early.
			ops = a.flush(ops)
		}
		if !a.active {
			a.active = true
			a.start = off
			a.fill = 0
			ops = append(ops, Op{Kind: OpNewChunk})
		}
		take := a.chunkSize - a.fill
		if take > n {
			take = n
		}
		ops = append(ops, Op{Kind: OpCopy, Off: off, Src: src, N: take, Pos: a.fill})
		a.fill += take
		off += take
		src += take
		n -= take
		if a.fill == a.chunkSize {
			ops = a.flush(ops)
		}
	}
	return ops
}

// Flush appends a flush of the active chunk, if any, to ops. Callers use
// it for close() and fsync(), which must push the partial tail chunk to the
// work queue (§IV-C, §IV-D.2).
func (a *FileAgg) Flush(ops []Op) []Op {
	if a.Active() {
		ops = a.flush(ops)
	}
	a.active = false
	return ops
}

func (a *FileAgg) flush(ops []Op) []Op {
	ops = append(ops, Op{Kind: OpFlush, Start: a.start, Fill: a.fill})
	a.active = false
	return ops
}
