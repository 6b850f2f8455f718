// Package simcrfs is CRFS in virtual time: the same aggregation policy as
// the real library (internal/core, via the shared internal/chunker state
// machine) running inside the discrete-event simulation, mounted over a
// simio backend (ext3, NFS, Lustre, or a discard sink).
//
// It models the full paper pipeline (§IV, Fig. 4): application writes
// arrive through the FUSE device in request-sized pieces, are copied into
// buffer-pool chunks, full chunks are enqueued on the work queue, and a
// fixed pool of IO worker processes writes them to the backend. close()
// blocks until the file's "complete chunk count" matches its "write chunk
// count".
package simcrfs

import (
	"fmt"

	"crfs/internal/chunker"
	"crfs/internal/des"
	"crfs/internal/fuse"
	"crfs/internal/simio"
)

// Options configures a simulated CRFS mount, mirroring core.Options.
type Options struct {
	BufferPoolSize int64 // total pool bytes (default 16 MB)
	ChunkSize      int64 // chunk bytes (default 4 MB)
	IOThreads      int   // worker processes (default 4)
	FUSE           fuse.Config
	// FUSEWorkers is the number of FUSE device reader threads available
	// to dispatch requests into CRFS concurrently (libfuse multithreaded
	// mode); it bounds the request pipeline, not CRFS's IO.
	FUSEWorkers int
	// ChunkOverhead is the fixed per-chunk cost of the work-queue
	// handoff paid by the IO worker (dequeue, buffer recycling).
	ChunkOverhead des.Duration
	// WriterChunkCost is the fixed per-chunk cost paid by the writing
	// process (pool allocation, metadata update, enqueue + wakeup). It
	// is what makes small chunk sizes lose raw bandwidth in Fig. 5.
	WriterChunkCost des.Duration
	// CopyBps is the memcpy bandwidth for copying payload into chunks.
	CopyBps int64
}

func (o Options) withDefaults() Options {
	if o.BufferPoolSize == 0 {
		o.BufferPoolSize = 16 << 20
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = 4 << 20
	}
	if o.IOThreads == 0 {
		o.IOThreads = 4
	}
	if o.FUSEWorkers == 0 {
		// The FUSE 2.8 device queue effectively serializes request
		// copies; one dispatch slot reproduces Fig. 5's ~1 GB/s node
		// ceiling.
		o.FUSEWorkers = 1
	}
	if o.ChunkOverhead == 0 {
		o.ChunkOverhead = 60 * des.Microsecond
	}
	if o.WriterChunkCost == 0 {
		o.WriterChunkCost = 25 * des.Microsecond
	}
	if o.CopyBps == 0 {
		o.CopyBps = 2200 << 20
	}
	// The paper's evaluation always mounts CRFS with big_writes (§V-A),
	// so it is the default; pass an explicit FUSE.MaxWrite (e.g. 4096)
	// to ablate it.
	if !o.FUSE.BigWrites && o.FUSE.MaxWrite == 0 {
		o.FUSE.BigWrites = true
	}
	return o
}

// Stats counts mount activity, mirroring core.Stats.
type Stats struct {
	Writes        int64
	BytesWritten  int64
	FUSERequests  int64
	ChunksFlushed int64
	BackendWrites int64
	PoolWaits     int64
}

// flushItem is one work-queue entry.
type flushItem struct {
	entry *fileEntry
	start int64
	fill  int64
}

type fileEntry struct {
	name        string
	backend     simio.File
	agg         *chunker.FileAgg
	refs        int
	writeChunks int64
	doneChunks  int64
	done        *des.Notify
	hasChunk    bool // holds a pool chunk
	chunkStart  int64
	chunkFill   int64
}

// Mount is one node's simulated CRFS instance. It implements simio.FS.
type Mount struct {
	env     *des.Env
	name    string
	backend simio.FS
	opts    Options

	pool    *des.Resource // free chunks
	queue   *des.Queue    // work queue of flushItems
	fuseDev *des.Resource // FUSE dispatch concurrency
	files   map[string]*fileEntry

	stats Stats
}

// NewMount creates a CRFS mount over backend and starts its IO workers.
// The workers register as the backend's dirtiers: with CRFS, the backend
// sees IOThreads writers instead of one per application process.
func NewMount(env *des.Env, name string, backend simio.FS, opts Options) *Mount {
	opts = opts.withDefaults()
	nChunks := int(opts.BufferPoolSize / opts.ChunkSize)
	if nChunks < 1 {
		nChunks = 1
	}
	m := &Mount{
		env:     env,
		name:    name,
		backend: backend,
		opts:    opts,
		pool:    des.NewResource(env, int64(nChunks)),
		queue:   des.NewQueue(env, 0),
		fuseDev: des.NewResource(env, int64(opts.FUSEWorkers)),
		files:   make(map[string]*fileEntry),
	}
	for i := 0; i < opts.IOThreads; i++ {
		backend.AddDirtier()
		env.Spawn(fmt.Sprintf("%s/io%d", name, i), m.ioWorker)
	}
	return m
}

// Options returns the effective options.
func (m *Mount) Options() Options { return m.opts }

// Stats returns a snapshot of the mount counters.
func (m *Mount) Stats() Stats { return m.stats }

func (m *Mount) ioWorker(p *des.Proc) {
	for {
		item, ok := m.queue.Get(p)
		if !ok {
			return
		}
		it := item.(*flushItem)
		p.Wait(m.opts.ChunkOverhead)
		it.entry.backend.Write(p, it.start, it.fill)
		m.stats.BackendWrites++
		m.pool.Release(1)
		it.entry.doneChunks++
		it.entry.done.Broadcast()
	}
}

// AddDirtier implements simio.FS. Application processes dirty CRFS's
// buffer pool, not the backend, so this is deliberately a no-op: the
// backend's dirtier census counts only CRFS's IO workers.
func (m *Mount) AddDirtier() {}

// RemoveDirtier implements simio.FS.
func (m *Mount) RemoveDirtier() {}

// Open implements simio.FS: consult/insert in the open-file table (§IV-A)
// and open the backend file on first open.
func (m *Mount) Open(p *des.Proc, name string) simio.File {
	p.Wait(fuse.CrossingCostNs) // open request through FUSE
	e, ok := m.files[name]
	if !ok {
		e = &fileEntry{
			name:    name,
			backend: m.backend.Open(p, name),
			agg:     chunker.NewFileAgg(m.opts.ChunkSize),
			done:    des.NewNotify(m.env),
		}
		m.files[name] = e
	}
	e.refs++
	return &file{m: m, e: e}
}

type file struct {
	m      *Mount
	e      *fileEntry
	closed bool
}

func (f *file) Name() string { return f.e.name }
func (f *file) Size() int64  { return f.e.backend.Size() }

// Write implements simio.File: the payload traverses the FUSE device in
// request-sized pieces and is aggregated into pool chunks; full chunks go
// to the work queue and the call returns without waiting for the backend.
func (f *file) Write(p *des.Proc, off, n int64) {
	m := f.m
	m.stats.Writes++
	m.stats.BytesWritten += n
	reqSize := int64(m.opts.FUSE.RequestSize())
	remaining := n
	pos := off
	for {
		piece := remaining
		if piece > reqSize {
			piece = reqSize
		}
		// FUSE dispatch: user/kernel crossings + payload copy through
		// the device, bounded by the device reader threads.
		m.fuseDev.Acquire(p, 1)
		p.Wait(fuse.RequestCostNs(piece))
		m.fuseDev.Release(1)
		m.stats.FUSERequests++

		// CRFS aggregation (§IV-B), shared state machine with the real
		// library.
		for _, op := range f.e.agg.Write(pos, piece, nil) {
			switch op.Kind {
			case chunker.OpNewChunk:
				if avail := m.pool.Available(); avail == 0 {
					m.stats.PoolWaits++
				}
				m.pool.Acquire(p, 1)
				f.e.hasChunk = true
				f.e.chunkFill = 0
			case chunker.OpCopy:
				if op.Pos == 0 {
					f.e.chunkStart = op.Off
				}
				f.e.chunkFill = op.Pos + op.N
				p.Wait(des.Duration(float64(op.N) / float64(m.opts.CopyBps) * float64(des.Second)))
			case chunker.OpFlush:
				f.flushActive(p)
			}
		}
		remaining -= piece
		pos += piece
		if remaining <= 0 {
			break
		}
	}
}

// flushActive hands the active chunk to the work queue.
func (f *file) flushActive(p *des.Proc) {
	p.Wait(f.m.opts.WriterChunkCost)
	e := f.e
	e.writeChunks++
	f.m.stats.ChunksFlushed++
	item := &flushItem{entry: e, start: e.chunkStart, fill: e.chunkFill}
	e.hasChunk = false
	e.chunkFill = 0
	f.m.queue.Put(p, item)
}

// drain enqueues the tail chunk and waits for all outstanding chunks
// (§IV-C: block until complete chunk count == write chunk count).
func (f *file) drain(p *des.Proc) {
	for _, op := range f.e.agg.Flush(nil) {
		if op.Kind == chunker.OpFlush {
			f.flushActive(p)
		}
	}
	for f.e.doneChunks < f.e.writeChunks {
		f.e.done.Wait(p)
	}
}

// Close implements simio.File (§IV-C).
func (f *file) Close(p *des.Proc) {
	if f.closed {
		return
	}
	f.closed = true
	p.Wait(fuse.CrossingCostNs)
	f.drain(p)
	f.e.refs--
	if f.e.refs == 0 {
		f.e.backend.Close(p)
		delete(f.m.files, f.e.name)
	}
}

// Sync implements simio.File (§IV-D.2): flush the buffer chunk, wait for
// outstanding writes, then fsync the backend.
func (f *file) Sync(p *des.Proc) {
	p.Wait(fuse.CrossingCostNs)
	f.drain(p)
	f.e.backend.Sync(p)
}

// Read implements simio.File: pass straight through (§IV-D.1), paying the
// FUSE request path.
func (f *file) Read(p *des.Proc, off, n int64) {
	reqSize := int64(f.m.opts.FUSE.RequestSize())
	remaining := n
	pos := off
	for remaining > 0 {
		piece := remaining
		if piece > reqSize {
			piece = reqSize
		}
		f.m.fuseDev.Acquire(p, 1)
		p.Wait(fuse.RequestCostNs(piece))
		f.m.fuseDev.Release(1)
		f.e.backend.Read(p, pos, piece)
		remaining -= piece
		pos += piece
	}
}

var _ simio.FS = (*Mount)(nil)
var _ simio.File = (*file)(nil)

// Discard is a simio backend that accepts writes at no cost beyond a fixed
// per-op overhead — the paper's raw-bandwidth rig (§V-B: "Once a filled
// chunk is picked up by an IO thread it is discarded without being written
// to a back-end filesystem").
type Discard struct {
	// PerOp is the fixed cost charged per write (buffer recycling).
	PerOp des.Duration
}

// Open implements simio.FS.
func (d *Discard) Open(p *des.Proc, name string) simio.File {
	return &discardFile{d: d, name: name}
}

// AddDirtier implements simio.FS.
func (d *Discard) AddDirtier() {}

// RemoveDirtier implements simio.FS.
func (d *Discard) RemoveDirtier() {}

type discardFile struct {
	d    *Discard
	name string
	size int64
}

func (f *discardFile) Name() string { return f.name }
func (f *discardFile) Size() int64  { return f.size }
func (f *discardFile) Write(p *des.Proc, off, n int64) {
	if end := off + n; end > f.size {
		f.size = end
	}
	p.Wait(f.d.PerOp)
}
func (f *discardFile) Read(p *des.Proc, off, n int64) { p.Wait(f.d.PerOp) }
func (f *discardFile) Sync(p *des.Proc)               {}
func (f *discardFile) Close(p *des.Proc)              {}

var _ simio.FS = (*Discard)(nil)
