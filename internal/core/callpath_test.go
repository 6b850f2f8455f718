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
// small sequential WriteAt, and a small sequential ReadAt served by
// read-ahead, allocate nothing per call once the stream is warm. What is
// left is per chunk or per block (a handful of allocations every 4096
// calls here), which AllocsPerRun's per-run average rounds away.
func TestCoreAllocsPerCall(t *testing.T) {
	const (
		chunk = 2 << 20
		bs    = 512
		calls = 4 * chunk / bs
	)
	fs := mount(t, memfs.New(), Options{ChunkSize: chunk, BufferPoolSize: 4 * chunk, IOThreads: 2, ReadAhead: 8})
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
	if st := fs.Stats(); float64(st.PrefetchHits) < 0.99*float64(st.PrefetchHits+st.PrefetchMisses) {
		t.Errorf("the measured reads were not served by read-ahead: hits %d, misses %d", st.PrefetchHits, st.PrefetchMisses)
	}
}

// TestSizeClasses pins the allocation size classes of two structs whose
// layout was measured. FS must stay in the 512-byte class, whose slots
// are cache-line aligned: at 472 bytes it fell into the 480-byte class and
// daemon-mixed spent ~7 % more CPU. A file is allocated per open, and
// stripe-gen opens one per chunk: it stays in the 96-byte class, which a
// streamCopy pointer fits only because seqRun fills mu's padding.
func TestSizeClasses(t *testing.T) {
	if n := unsafe.Sizeof(FS{}); n <= 480 || n > 512 {
		t.Errorf("FS is %d bytes, want 481..512 (the 512-byte size class)", n)
	}
	if n := unsafe.Sizeof(file{}); n > 96 {
		t.Errorf("file is %d bytes, want at most 96 (the 96-byte size class)", n)
	}
}

// TestReadAheadFairShare runs two concurrent restart readers of small
// reads over a pool of four chunks. Each entry's read-ahead is entitled to
// half the pool, so neither reader starves the other: the backend sees
// each block about once — not one read per call from the reader that came
// second — and the reads that reach the cache mostly hit it.
//
// Hits and misses count base reads, and a stream's 512 B calls reach the
// base only to refill the handle's 16 KiB copy: four times per 64 KiB
// block. A block no worker read ahead costs its reader one miss (the
// refill that fetches the rest of the block) and three hits, so a reader
// that fetched every block itself — still one backend read per block,
// still fair — reads 0.75, less the stream's first reads. A reader denied
// its share reads the backend at every refill and misses them all. Hence
// 0.7.
func TestReadAheadFairShare(t *testing.T) {
	const (
		chunk  = 64 << 10
		blocks = 32
		bs     = 512
	)
	back := newReadCountFS(memfs.New())
	names := []string{"rank0.img", "rank1.img"}
	want := make([][]byte, len(names))
	for i, name := range names {
		want[i] = writeThroughMountChunk(t, back, nil, name, blocks*chunk, chunk)
	}
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: 4 * chunk, IOThreads: 4, ReadAhead: 8})
	handles := make([]vfs.File, len(names))
	for i, name := range names { // both open before either reads: the share is 2 throughout
		f, err := fs.Open(name, vfs.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		handles[i] = f
	}
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streamRead(t, handles[i], want[i], 0, bs)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, name := range names {
		calls := handles[i].(*file).entry.calls
		hits, misses := calls.prefetchHits.Load(), calls.prefetchMisses.Load()
		if frac := float64(hits) / float64(hits+misses); frac < 0.7 {
			t.Errorf("%s: %d hits, %d misses (%.3f), want >= 0.7", name, hits, misses, frac)
		}
		if n, _ := back.reads(name); n > blocks+4 {
			t.Errorf("%s: %d backend reads for %d blocks, want <= %d", name, n, blocks, blocks+4)
		}
	}
	if st := fs.Stats(); st.PrefetchSelfFetched == 0 {
		t.Errorf("no block was fetched by its reader: %+v", st)
	}
}

// TestReadAheadSurvivesWriterPressure reads a file sequentially in small
// calls while a writer on another file is kept starved for pool chunks by
// a slow backend. The blocked writer's reclaim ticks take nothing from a
// stream that is being read within its share — the block it is inside and
// the one fetched ahead of it — so the reader never fetches a byte twice.
// (Every chunk the reader gives up by consuming it goes to the writer, so
// it ends up reading the backend directly: out-competed, not evicted.)
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
	// The stream gets going first: the reader holds the block it is in
	// and, once a worker has fetched it, the next one.
	streamRead(t, r, want[:chunk/2], 0, bs)
	for deadline := time.Now().Add(5 * time.Second); fs.raChunks.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("read-ahead holds %d chunks, want the stream's share of 2", fs.raChunks.Load())
		}
	}

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
		t.Errorf("backend read %d bytes of a %d-byte file, want <= %d: read-ahead was taken from a live stream and fetched again",
			got, len(want), limit)
	}
	if st.PrefetchReclaimed != 0 || st.PrefetchWasted != 0 {
		t.Errorf("a live stream within its share lost read-ahead to the writer: reclaimed %d, wasted %d", st.PrefetchReclaimed, st.PrefetchWasted)
	}
	t.Logf("pool waits %d, self-fetched %d, hits %d, misses %d", st.PoolWaits, st.PrefetchSelfFetched, st.PrefetchHits, st.PrefetchMisses)
}

// TestIdleReadAheadYieldsToWriter is the other half of the reclaim rule:
// a stream nobody reads any more does not keep its share. Once a writer
// has waited on the pool for idleTicks ticks, the quiet stream's blocks go
// back to it.
func TestIdleReadAheadYieldsToWriter(t *testing.T) {
	const chunk = 64 << 10
	back := memfs.New(memfs.WithWriteDelay(time.Millisecond))
	want := writeThroughMountChunk(t, back, nil, "restart.img", 8*chunk, chunk)
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: 4 * chunk, IOThreads: 1, ReadAhead: 8})
	w, err := fs.Open("ckpt.img", vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("restart.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	streamRead(t, r, want[:chunk/2], 0, 512) // the stream holds its block, then goes quiet
	if fs.raChunks.Load() == 0 {
		t.Fatal("the stream holds no read-ahead to give back")
	}
	p := make([]byte, chunk)
	for off, deadline := int64(0), time.Now().Add(10*time.Second); fs.raChunks.Load() > 0; off = (off + chunk) % (8 * chunk) {
		if time.Now().After(deadline) {
			t.Fatalf("a writer under pool pressure never got the idle stream's %d chunks back: %+v",
				fs.raChunks.Load(), fs.Stats())
		}
		if _, err := w.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.PrefetchReclaimed == 0 {
		t.Errorf("read-ahead went away without a reclaim: %+v", st)
	}
	streamRead(t, r, want, chunk/2, 512) // the stream picks up where it stopped, correctly
}

// TestReadAheadReclaimedWhenItHoldsThePool pins the liveness half of the
// reclaim rule: read-ahead that holds every chunk of the pool gives all of
// it back to a blocked writer, however recently it was read — a reader
// can never sit on the last chunk a writer needs.
func TestReadAheadReclaimedWhenItHoldsThePool(t *testing.T) {
	const chunk = 4096
	back := memfs.New()
	want := writeThroughMountChunk(t, back, nil, "restart.img", 8*chunk, chunk)
	// One chunk: whatever read-ahead holds is the whole pool.
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: chunk, IOThreads: 1, ReadAhead: 4})
	r, err := fs.Open("restart.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 64)
	for off := 0; off < 4*len(buf); off += len(buf) { // a stream, and its block fetched
		if _, err := r.ReadAt(buf, int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.raChunks.Load(); got != 1 {
		t.Fatalf("read-ahead holds %d chunks, want the pool's only one", got)
	}
	w, err := fs.Open("ckpt.img", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.WriteAt(make([]byte, 100), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer starved: read-ahead kept the pool's only chunk")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.PrefetchReclaimed == 0 {
		t.Errorf("the chunk came back without a reclaim: %+v", st)
	}
	// The reader carries on, correctly, from the backend or a new fetch.
	readSequential(t, r, want, len(buf))
}

// TestSelfFetchedExtentStartsMidBlock: a reader's own fetch covers its
// block from the offset it missed at, not from the block's start. Another
// handle reading the same block from an earlier offset must miss that
// extent cleanly and read the backend.
func TestSelfFetchedExtentStartsMidBlock(t *testing.T) {
	const chunk = 64 << 10
	back := memfs.New()
	want := writeThroughMountChunk(t, back, nil, "img", 2*chunk, chunk)
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: 4 * chunk, IOThreads: 2, ReadAhead: 4})
	a, err := fs.Open("img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := fs.Open("img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	buf := make([]byte, 256)
	for off := int64(8192); off < 8192+4*256; off += 256 { // a's stream starts 8 KiB into block 0
		if _, err := a.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[off:off+256]) {
			t.Fatalf("a: mismatch at %d", off)
		}
	}
	if fs.Stats().PrefetchSelfFetched == 0 {
		t.Fatal("a's stream did not fetch its block")
	}
	for _, off := range []int64{0, 4096, 8192 - 256, 8192 - 128, 8192 + 512} { // before, across and inside the extent
		if _, err := b.ReadAt(buf, off); err != nil {
			t.Fatalf("b at %d: %v", off, err)
		}
		if !bytes.Equal(buf, want[off:off+256]) {
			t.Fatalf("b: mismatch at %d", off)
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
// queues.
func TestQueueDwellOnMonotonicClock(t *testing.T) {
	const chunk = 64 << 10
	tr := obs.New(1 << 12) // holds every span of the cycle
	tr.SetEnabled(true)
	fs, err := Mount(memfs.New(), Options{ChunkSize: chunk, BufferPoolSize: 8 * chunk, IOThreads: 2, ReadAhead: 4, Tracer: tr})
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
