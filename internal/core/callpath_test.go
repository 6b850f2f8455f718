package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// readCountFS wraps a backend and counts the ReadAt calls and bytes each
// file receives, so tests can tell one reader's backend traffic from
// another's.
type readCountFS struct {
	vfs.FS
	mu    sync.Mutex
	calls map[string]int64
	bytes map[string]int64
}

func newReadCountFS(back vfs.FS) *readCountFS {
	return &readCountFS{FS: back, calls: make(map[string]int64), bytes: make(map[string]int64)}
}

func (c *readCountFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	f, err := c.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &readCountFile{File: f, c: c, name: vfs.Clean(name)}, nil
}

func (c *readCountFS) reads(name string) (calls, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[name], c.bytes[name]
}

type readCountFile struct {
	vfs.File
	c    *readCountFS
	name string
}

func (f *readCountFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.mu.Lock()
	f.c.calls[f.name]++
	f.c.bytes[f.name] += int64(n)
	f.c.mu.Unlock()
	return n, err
}

// streamRead reads f from off to the end of want in bs-sized calls,
// checking every byte.
func streamRead(t *testing.T, f vfs.File, want []byte, off, bs int) {
	t.Helper()
	buf := make([]byte, bs)
	for ; off < len(want); off += bs {
		n, err := f.ReadAt(buf, int64(off))
		if err != nil && err != io.EOF {
			t.Errorf("%s: read at %d: %v", f.Name(), off, err)
			return
		}
		if !bytes.Equal(buf[:n], want[off:off+n]) {
			t.Errorf("%s: read at %d: %d bytes mismatch", f.Name(), off, n)
			return
		}
	}
}

// TestCoreAllocsPerCall is the allocation floor of the core call path: a
// small sequential WriteAt, and a small sequential ReadAt served from its
// handle's copy, allocate nothing per call once the stream is warm. What
// is left is per chunk (a handful of allocations every 4096 calls here),
// which AllocsPerRun's per-run average rounds away.
func TestCoreAllocsPerCall(t *testing.T) {
	const (
		chunk = 2 << 20
		bs    = 512
		calls = 4 * chunk / bs
	)
	back := newReadCountFS(memfs.New())
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: 4 * chunk, IOThreads: 2, ReadAhead: 8})
	w, err := fs.Open("img", vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{0xC5}, bs)
	var off int64
	write := func() {
		if _, err := w.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
		off += bs
	}
	for i := 0; i < calls; i++ { // warm-up: every pool chunk has been through the pipeline
		write()
	}
	perWrite := testing.AllocsPerRun(calls, write)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	size := off

	r, err := fs.Open("img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	off = 0
	read := func() {
		if n, err := r.ReadAt(p, off); n != bs || err != nil {
			t.Fatalf("read at %d: n=%d err=%v", off, n, err)
		}
		if off += bs; off == size {
			off = 0
		}
	}
	for i := 0; i < calls; i++ {
		read()
	}
	perRead := testing.AllocsPerRun(calls, read)
	t.Logf("allocations per 512 B call: WriteAt %.0f, ReadAt %.0f", perWrite, perRead)
	if perWrite != 0 {
		t.Errorf("WriteAt allocates %.0f times per call, want 0", perWrite)
	}
	if perRead != 0 {
		t.Errorf("ReadAt allocates %.0f times per call, want 0", perRead)
	}
	// A warm copy holds selfFetchMax bytes: one backend read per 32 calls.
	if n, _ := back.reads("img"); n > int64(2*calls+1)*bs/selfFetchMax+64 {
		t.Errorf("%d reads of %d B made %d backend reads: they were not served from the handle's copy", 2*calls+1, bs, n)
	}
}

// TestSizeClasses pins the allocation size classes of three structs whose
// layout was measured. FS must stay in the 512-byte class, whose slots
// are cache-line aligned: at 472 bytes it fell into the 480-byte class and
// daemon-mixed spent ~7 % more CPU. A file is allocated per open, and
// stripe-gen opens one per chunk: it stays in the 96-byte class, which a
// streamCopy pointer fits only because seqRun fills mu's padding. A
// prefetcher is allocated with every entry, frames or not, and stays in
// the 80-byte class it had before it held the current frame: cur took the
// place of its FS pointer (it reaches the mount through its entry).
func TestSizeClasses(t *testing.T) {
	if n := unsafe.Sizeof(FS{}); n <= 480 || n > 512 {
		t.Errorf("FS is %d bytes, want 481..512 (the 512-byte size class)", n)
	}
	if n := unsafe.Sizeof(file{}); n > 96 {
		t.Errorf("file is %d bytes, want at most 96 (the 96-byte size class)", n)
	}
	if n := unsafe.Sizeof(prefetcher{}); n > 80 {
		t.Errorf("prefetcher is %d bytes, want at most 80 (the 80-byte size class)", n)
	}
}

// TestReadAheadSurvivesWriterPressure reads a file sequentially in small
// calls while a writer on another file is kept starved for pool chunks by
// a slow backend. A plain stream's read-ahead is its handle's copy, which
// is not the pool's: the blocked writer's reclaim ticks have nothing of
// the reader's to take, and the reader never reads a byte twice.
func TestReadAheadSurvivesWriterPressure(t *testing.T) {
	const (
		chunk  = 1 << 20 // a block outlasts dozens of reclaim ticks
		blocks = 8       // one block fetched twice is 12 %
		bs     = 512
	)
	back := newReadCountFS(memfs.New(memfs.WithWriteDelay(2 * time.Millisecond)))
	want := writeThroughMountChunk(t, back, nil, "restart.img", blocks*chunk, chunk)
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: 4 * chunk, IOThreads: 4, ReadAhead: 8})
	w, err := fs.Open("ckpt.img", vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("restart.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	streamRead(t, r, want[:chunk/2], 0, bs) // the stream gets going first

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer: always has more to write than the pool holds (its file stays bounded)
		defer wg.Done()
		p := make([]byte, chunk)
		for off := int64(0); !stop.Load(); off = (off + chunk) % (blocks * chunk) {
			if _, err := w.WriteAt(p, off); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	for fs.Stats().PoolWaits == 0 { // the writer is up against the pool
		time.Sleep(100 * time.Microsecond)
	}
	streamRead(t, r, want, chunk/2, bs)
	stop.Store(true)
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	_, got := back.reads("restart.img")
	if limit := int64(float64(len(want)) * 1.05); got > limit {
		t.Errorf("backend read %d bytes of a %d-byte file, want <= %d: the stream read bytes twice",
			got, len(want), limit)
	}
	if st.PrefetchWasted != 0 {
		t.Errorf("a live stream lost read-ahead to the writer: wasted %d", st.PrefetchWasted)
	}
	t.Logf("pool waits %d", st.PoolWaits)
}

// TestPlainRestoreLeavesPoolFree: a plain file's restart reads go straight
// to the backend, so a sequential restore of several blocks with no writes
// holds no buffer-pool chunk at any read — the pool is the write path's —
// and reads each backend byte exactly once.
func TestPlainRestoreLeavesPoolFree(t *testing.T) {
	const (
		chunk  = 64 << 10
		blocks = 8
	)
	back := newReadCountFS(memfs.New())
	want := writeThroughMountChunk(t, back, nil, "restart.img", blocks*chunk, chunk)
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: 4 * chunk, IOThreads: 4, ReadAhead: 8})
	for _, bs := range []int{512, 8 << 10, chunk} {
		r, err := fs.Open("restart.img", vfs.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		_, before := back.reads("restart.img") // the open sniffed for a frame header
		buf := make([]byte, bs)
		for off := 0; off < len(want); off += bs {
			if n, err := r.ReadAt(buf, int64(off)); n != bs || err != nil || !bytes.Equal(buf, want[off:off+bs]) {
				t.Fatalf("%d B reads: read at %d: n=%d err=%v", bs, off, n, err)
			}
			if free := len(fs.pool.free); free != fs.pool.total {
				t.Fatalf("%d B reads: after the read at %d, %d of %d pool chunks are free", bs, off, free, fs.pool.total)
			}
		}
		if _, after := back.reads("restart.img"); after-before != int64(len(want)) {
			t.Errorf("%d B reads: the backend read %d bytes of a %d-byte file", bs, after-before, len(want))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCallCountersExactAcrossShards: the per-call counters and the two
// call histograms are sharded per entry and summed at read time; N calls
// must read back as exactly N while every handle is still open, after
// some close, and for an entry Remove unlinked from the table. Each
// histogram counts the sampled calls: the first of every callSampleStride
// on each shard, ⌈n/callSampleStride⌉ for n calls from one caller.
func TestCallCountersExactAcrossShards(t *testing.T) {
	fs := mount(t, memfs.New(), Options{ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2, ReadAhead: 4})
	const (
		files     = 5
		writesPer = 2 * callSampleStride // the next write on a shard is sampled
		readsPer  = callSampleStride     // ... and so is the next read
	)
	sampled := func(n int64) int64 { return (n + callSampleStride - 1) / callSampleStride }
	handles := make([]vfs.File, files)
	p := make([]byte, 100)
	check := func(when string, wantW, wantR, wantSampledW, wantSampledR int64) {
		t.Helper()
		st := fs.Stats()
		if st.Writes != wantW || st.BytesWritten != wantW*100 {
			t.Errorf("%s: Writes=%d BytesWritten=%d, want %d and %d", when, st.Writes, st.BytesWritten, wantW, wantW*100)
		}
		if st.Reads != wantR || st.BytesRead != wantR*100 {
			t.Errorf("%s: Reads=%d BytesRead=%d, want %d and %d", when, st.Reads, st.BytesRead, wantR, wantR*100)
		}
		for _, ph := range fs.PromHistograms() {
			switch ph.Name {
			case "crfs_write_latency_seconds":
				if int64(ph.Count) != wantSampledW {
					t.Errorf("%s: %s_count=%d, want %d", when, ph.Name, ph.Count, wantSampledW)
				}
			case "crfs_read_latency_seconds":
				if int64(ph.Count) != wantSampledR {
					t.Errorf("%s: %s_count=%d, want %d", when, ph.Name, ph.Count, wantSampledR)
				}
			default:
				continue
			}
			if want := fmt.Sprintf("one call in %d per open file", callSampleStride); !strings.Contains(ph.Help, want) {
				t.Errorf("%s HELP %q does not say %q", ph.Name, ph.Help, want)
			}
		}
	}
	for i := range handles {
		f, err := fs.Open(fmt.Sprintf("f%d", i), vfs.ReadWrite|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = f
		for j := 0; j < writesPer; j++ {
			if _, err := f.WriteAt(p, int64(j*100)); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < readsPer; j++ {
			if _, err := f.ReadAt(p, int64(j*100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sw, sr := files*sampled(writesPer), files*sampled(readsPer)
	check("all handles open", files*writesPer, files*readsPer, sw, sr)
	if err := fs.Remove("f0"); err != nil { // f0's entry leaves the table but stays live
		t.Fatal(err)
	}
	if _, err := handles[0].WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	sw += sampled(writesPer+1) - sampled(writesPer)
	check("after Remove of an open file", files*writesPer+1, files*readsPer, sw, sr)
	for _, f := range handles[:3] {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check("after three closes", files*writesPer+1, files*readsPer, sw, sr)
	if _, err := handles[4].ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	sr += sampled(readsPer+1) - sampled(readsPer)
	check("one more read", files*writesPer+1, files*readsPer+1, sw, sr)
	for _, f := range handles[3:] {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check("all closed", files*writesPer+1, files*readsPer+1, sw, sr)
}

// countClockReads substitutes a clock for fs's that counts how often it
// is read. Call it before the mount's first IO.
func countClockReads(fs *FS) *atomic.Int64 {
	var reads atomic.Int64
	clock := fs.monotonic
	fs.monotonic = func() int64 {
		reads.Add(1)
		return clock()
	}
	return &reads
}

// TestUnsampledCallsReadNoClock: a WriteAt or ReadAt that is not sampled
// reads no clock. 61×100 calls each way, none of which fills a chunk or
// plans read-ahead (the only other readers of the clock), read it twice
// per sampled call: 200 times, where timing every call read it 12,200.
func TestUnsampledCallsReadNoClock(t *testing.T) {
	const (
		sampled = 100
		calls   = sampled * callSampleStride
		bs      = 8
		limit   = 2 * (sampled + 1)
	)
	fs := mount(t, memfs.New(), Options{ChunkSize: 64 << 10}) // calls*bs fits one chunk; no read-ahead
	clockReads := countClockReads(fs)
	f, err := fs.Open("img", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, bs)
	for i := 0; i < calls; i++ {
		p[0] = byte(i)
		if _, err := f.WriteAt(p, int64(i*bs)); err != nil {
			t.Fatal(err)
		}
	}
	if got := clockReads.Swap(0); got > limit {
		t.Errorf("%d WriteAt calls read the clock %d times, want <= %d", calls, got, limit)
	}
	for i := 0; i < calls; i++ {
		if _, err := f.ReadAt(p, int64(i*bs)); err != nil || p[0] != byte(i) {
			t.Fatalf("read %d: got %d, %v", i, p[0], err)
		}
	}
	if got := clockReads.Load(); got > limit {
		t.Errorf("%d ReadAt calls read the clock %d times, want <= %d", calls, got, limit)
	}
	shard := f.(*file).entry.calls
	if w, r := shard.writeAt.Snapshot().Count, shard.readAt.Snapshot().Count; w != sampled || r != sampled {
		t.Errorf("histograms hold %d writes and %d reads, want %d sampled calls each", w, r, sampled)
	}
}

// TestQueueDwellOnMonotonicClock: the two queue-dwell histograms measure
// on the mount's monotonic clock — the enqueue stamp and the pickup both
// read it, so no dwell is negative whatever the wall clock does — and
// they observe every chunk and read-ahead job that went through the
// queues (a container's restore: only frames are read ahead).
func TestQueueDwellOnMonotonicClock(t *testing.T) {
	const chunk = 64 << 10
	tr := obs.New(1 << 12) // holds every span of the cycle
	tr.SetEnabled(true)
	fs, err := Mount(memfs.New(), Options{ChunkSize: chunk, BufferPoolSize: 8 * chunk, IOThreads: 2, ReadAhead: 4, Codec: codec.Deflate(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	clockReads := countClockReads(fs)
	want := make([]byte, 16*chunk)
	for i := range want {
		want[i] = byte(i * 13)
	}
	w, err := fs.Open("img", vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(want); off += chunk {
		if _, err := w.WriteAt(want[off:off+chunk], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	readSequential(t, r, want, 4096)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil { // the workers drain both queues
		t.Fatal(err)
	}
	if n := tr.Overwritten(); n != 0 {
		t.Fatalf("the trace ring overwrote %d spans; the job count below would be short", n)
	}
	jobs := int64(0)
	for _, rec := range tr.Snapshot() {
		if rec.Name == "crfs.prefetch" {
			jobs++
		}
	}
	if jobs == 0 {
		t.Fatal("the restore ran no read-ahead job")
	}
	calls := fs.callTotals()
	observed := calls.writeAt.Snapshot().Count + calls.readAt.Snapshot().Count
	for _, q := range []struct {
		name  string
		h     *obs.Histogram
		count int64
	}{
		{"write queue", fs.hist.queueWaitWrite, fs.Stats().ChunksFlushed},
		{"prefetch queue", fs.hist.queueWaitPrefetch, jobs},
	} {
		s := q.h.Snapshot()
		if s.Sum < 0 || s.Count != q.count {
			t.Errorf("%s dwell: sum %d ns over %d observations, want >= 0 over %d", q.name, s.Sum, s.Count, q.count)
		}
		observed += s.Count
	}
	// Every observation read the mount's clock twice (a read-ahead job the
	// full queue dropped read it once more, at its stamp).
	if got := clockReads.Load(); got < 2*observed {
		t.Errorf("the mount's clock was read %d times for %d observations, want >= %d: a dwell was measured on another clock", got, observed, 2*observed)
	}
}
