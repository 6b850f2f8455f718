package core

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crfs/internal/blcr"
	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// Tests of the decoded-frame buffers: a frame is decoded into a buffer of
// the mount's decode free list that read-ahead, the one-frame decode cache
// and the readers copying from it share by reference count.

// waitPoolWhole fails unless every chunk of the mount's pool and every
// decode buffer comes back to its free list: a pin that was never dropped,
// or a read-path reference that outlived its entry, shows as a buffer
// missing for good. Every decode buffer ever made counts as a fallback,
// and the list drops one only while it is full, so with nothing held it
// has as many idle as were made, or all it keeps. (A read-ahead job still
// running when the last handle closed gives its buffer back a moment
// later, hence the wait. No test here decodes a frame larger than a
// chunk, the other thing a fallback counts.)
func waitPoolWhole(t *testing.T, fs *FS) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		free, held := len(fs.pool.free), fs.raChunks.Load()
		idle, made := len(fs.decBufs.free), int(fs.stats.decodeHeapFallbacks.Load())
		if free == fs.pool.total && held == 0 && idle == min(made, cap(fs.decBufs.free)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool has %d of %d chunks free, the read path counts %d held, and %d of %d decode buffers made are idle (the list keeps %d), with no file open",
				free, fs.pool.total, held, idle, made, cap(fs.decBufs.free))
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of what is put into it on purpose.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// maxRestoreAllocKiBPerMiB is the CI floor of ROADMAP direction 3's
// allocation half: what restoring through a deflate mount may allocate per
// MiB it returns. A decode buffer per frame alone would be 1024 KiB per
// MiB, the payload buffer another 500.
const maxRestoreAllocKiBPerMiB = 16

// TestFramedRestoreAllocsPerMiB restores a 16 MiB deflate image in BLCR's
// read sizes and in 512 B reads, with read-ahead and without, and holds
// the process-wide allocation count of a warm restore to the floor. The
// mount is the shipped default (4 MiB chunks, a pool of four), as the
// repository benchmark mounts it.
func TestFramedRestoreAllocsPerMiB(t *testing.T) {
	const image = 16 << 20
	back := memfs.New()
	want := compressiblePayload(image, 3)
	{
		fs := mount(t, back, Options{Codec: codec.Deflate()})
		writeThrough(t, fs, "img", want, 1<<20)
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
	}
	small := make([]int64, image/512)
	for i := range small {
		small[i] = 512
	}
	got := make([]byte, image)
	for _, tc := range []struct {
		name      string
		sizes     []int64
		readAhead int
	}{
		{"blcr/readahead", blcr.Stream(image, 1), 8},
		{"blcr/demand", blcr.Stream(image, 1), 0},
		{"512B/readahead", small, 8},
		{"512B/demand", small, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := mount(t, back, Options{Codec: codec.Deflate(), ReadAhead: tc.readAhead})
			var off int64 // what one restore reads: blcr.Stream stops a little short of the image
			restore := func() {
				f, err := fs.Open("img", vfs.ReadOnly)
				if err != nil {
					t.Fatal(err)
				}
				off = 0
				for _, n := range tc.sizes {
					if rn, err := f.ReadAt(got[off:off+n], off); int64(rn) != n {
						t.Fatalf("read at %d: %d of %d bytes: %v", off, rn, n, err)
					}
					off += n
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			restore() // warm-up: the scratch buffers, the decode buffers and the inflaters exist
			if !bytes.Equal(got[:off], want[:off]) {
				t.Fatal("restored bytes differ")
			}
			// The scratch buffers and inflaters sit in sync.Pools, which a
			// collection empties and which hand an idle P's buffer to a
			// busy one only after a miss: the steady state is the best of
			// a few restores, with the collector off.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			best := -1.0
			for i := 0; i < 4; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				restore()
				runtime.ReadMemStats(&after)
				perMiB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (float64(off) / (1 << 20))
				if best < 0 || perMiB < best {
					best = perMiB
				}
			}
			st := fs.Stats()
			t.Logf("%.2f KiB allocated per MiB restored (%d decode buffers made in five restores)", best, st.DecodeHeapFallbacks)
			if raceEnabled() {
				return // sync.Pool sheds buffers under the race detector
			}
			if best > maxRestoreAllocKiBPerMiB {
				t.Errorf("%.1f KiB allocated per MiB restored, floor is %d", best, maxRestoreAllocKiBPerMiB)
			}
			// One stream holds the frame it is inside and at most ReadAhead
			// ahead of it, and this image has four.
			if most := int64(min(image/DefaultChunkSize, tc.readAhead+1)); st.DecodeHeapFallbacks > most {
				t.Errorf("%d decode buffers were made for a stream that holds at most %d", st.DecodeHeapFallbacks, most)
			}
			waitPoolWhole(t, fs)
		})
	}
}

// TestDecodedFramePinnedUnderReaders hunts for a decoded frame's buffer
// being recycled under a reader. Readers of one deflate container — small
// reads inside one frame, whole-frame reads, reads across frames — run
// against a mutator that rewrites the file with rising version bytes
// through two writer handles and, between versions, resets it
// (Truncate(0)) and renames it away and back, over a pool of four chunks. The test binary poisons every recycled pool chunk and
// decode buffer (TestMain), so a byte read from a buffer
// after its last pin was dropped is 0xDB — above every version — and a
// byte from before the last published version is below it: every byte
// returned must lie between the version published before the read and the
// one being written after it. Run with -race.
func TestDecodedFramePinnedUnderReaders(t *testing.T) {
	const (
		chunk    = 16 << 10
		fileSize = 8 * chunk
		rounds   = 60 // < 0xDB, the poison byte
	)
	back := memfs.New(memfs.WithReadDelay(20 * time.Microsecond))
	fs := mount(t, back, Options{
		ChunkSize: chunk, BufferPoolSize: 4 * chunk, IOThreads: 4,
		ReadAhead: 4, Codec: codec.Deflate(),
	})
	w, err := fs.Open("ckpt", vfs.ReadWrite|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	var published, writing atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		done.Store(true)
	}
	readSizes := []int{64, 64, chunk, chunk + chunk/2}
	handles := make([]vfs.File, len(readSizes))
	for r := range handles { // opened before the mutator starts renaming the file about
		if handles[r], err = fs.Open("ckpt", vfs.ReadOnly); err != nil {
			t.Fatal(err)
		}
	}
	wg.Add(1)
	go func() { // the mutator
		defer wg.Done()
		defer done.Store(true)
		half := make([]byte, fileSize/2)
		for v := int64(1); v <= rounds && !done.Load(); v++ {
			writing.Store(v)
			switch {
			case v%6 == 0:
				if err := w.Truncate(0); err != nil {
					fail("truncate: %v", err)
					return
				}
			case v%5 == 0:
				if err := fs.Rename("ckpt", "ckpt.away"); err != nil {
					fail("rename away: %v", err)
					return
				}
				if err := fs.Rename("ckpt.away", "ckpt"); err != nil {
					fail("rename back: %v", err)
					return
				}
			}
			for i := range half {
				half[i] = byte(v)
			}
			if _, err := w.WriteAt(half, 0); err != nil {
				fail("write v%d: %v", v, err)
				return
			}
			w2, err := fs.Open("ckpt", vfs.WriteOnly) // the second writer
			if err != nil {
				fail("second writer: %v", err)
				return
			}
			if _, err := w2.WriteAt(half, fileSize/2); err != nil {
				fail("second writer v%d: %v", v, err)
				return
			}
			if err := w2.Close(); err != nil {
				fail("second writer close: %v", err)
				return
			}
			if err := w.Sync(); err != nil {
				fail("sync v%d: %v", v, err)
				return
			}
			published.Store(v)
			time.Sleep(300 * time.Microsecond) // a quiet spell: frames get decoded and cached
		}
	}()
	for r, bs := range readSizes {
		wg.Add(1)
		go func(r, bs int) {
			defer wg.Done()
			f := handles[r]
			defer f.Close()
			buf := make([]byte, bs)
			for !done.Load() {
				for off := 0; off < fileSize && !done.Load(); off += bs {
					floor := published.Load()
					n, err := f.ReadAt(buf, int64(off))
					if err != nil && err != io.EOF {
						fail("reader %d at %d: %v", r, off, err)
						return
					}
					ceil := writing.Load()
					for i, b := range buf[:n] {
						if int64(b) < floor || int64(b) > ceil {
							fail("reader %d (%d B reads): byte %#x at %d, outside versions [%d, %d]", r, bs, b, off+i, floor, ceil)
							return
						}
					}
					if n < bs {
						break // a reset cut the file: start over
					}
				}
			}
		}(r, bs)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !t.Failed() {
		waitPoolWhole(t, fs)
	}
}

// TestDecodedFramesLeavePoolToWriter: decoded frames live in decode
// buffers, not pool chunks — a container read to its middle, with frames
// decoded ahead of the stream, holds none of a two-chunk pool, and a
// writer of another file gets through without taking anything back.
func TestDecodedFramesLeavePoolToWriter(t *testing.T) {
	const chunk = 8 << 10
	back := memfs.New()
	want := writeThroughMountChunk(t, back, codec.Deflate(), "restart.img", 8*chunk, chunk)
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: 2 * chunk, IOThreads: 2, ReadAhead: 4, Codec: codec.Deflate()})
	r, err := fs.Open("restart.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	streamRead(t, r, want[:chunk+chunk/2], 0, 512)
	pf := r.(*file).entry.pf
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		pf.mu.Lock()
		ahead := len(pf.ready)
		pf.mu.Unlock()
		if ahead == 4 {
			break // the full depth, over a pool of two
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames decoded ahead of the stream, want 4: %+v", ahead, fs.Stats())
		}
	}
	if held, free := fs.raChunks.Load(), len(fs.pool.free); held != 0 || free != fs.pool.total {
		t.Fatalf("the read path holds %d pool chunks and %d of %d are free", held, free, fs.pool.total)
	}
	w, err := fs.Open("ckpt.img", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(make([]byte, 3*chunk), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.PrefetchReclaimed != 0 {
		t.Errorf("the writer took read-ahead back: %+v", st)
	}
	streamRead(t, r, want, chunk+chunk/2, 512) // the stream carries on, correctly
	if st := fs.Stats(); st.PrefetchHits < 4 {
		t.Errorf("the frames decoded ahead were not served: %+v", st)
	}
}

// TestFramedReadAheadSurvivesSeek: frames fetched ahead of a stream that
// then seeks away must not hold their decode buffers for good: the
// stream's next plan drops what it left behind, and reads ahead again.
func TestFramedReadAheadSurvivesSeek(t *testing.T) {
	const chunk = 8 << 10
	back := memfs.New()
	want := writeThroughMountChunk(t, back, codec.Deflate(), "img", 8*chunk, chunk)
	fs := mount(t, back, Options{ChunkSize: chunk, BufferPoolSize: 2 * chunk, IOThreads: 2, ReadAhead: 4, Codec: codec.Deflate()})
	f, err := fs.Open("img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pf := f.(*file).entry.pf
	cached := func() int {
		pf.mu.Lock()
		defer pf.mu.Unlock()
		return len(pf.ready)
	}
	awaitFrame := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); cached() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: no frame was decoded ahead of the stream: %+v", what, fs.Stats())
			}
		}
	}
	streamRead(t, f, want[:chunk/2], 0, 512) // inside frame 0: frames 1 to 4 are fetched ahead
	awaitFrame("first stream")
	streamRead(t, f, want[:5*chunk+chunk/2], 5*chunk, 512) // seek: they are left behind
	awaitFrame("after the seek")
	wasted := fs.Stats().PrefetchWasted
	hits := fs.Stats().PrefetchHits
	streamRead(t, f, want, 5*chunk+chunk/2, 512)
	if st := fs.Stats(); st.PrefetchHits == hits || wasted == 0 {
		t.Errorf("after the seek: %d frames served from read-ahead, %d left-behind frames dropped", st.PrefetchHits-hits, wasted)
	}
}
