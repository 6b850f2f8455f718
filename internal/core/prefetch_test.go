package core

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// writeThroughMount creates name on back via a throwaway mount with the
// given codec and returns the bytes written, so read tests start from a
// drained, durable file (plain or frame container).
func writeThroughMount(t testing.TB, back vfs.FS, cdc codec.Codec, name string, size int) []byte {
	t.Helper()
	fs, err := Mount(back, Options{ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2, Codec: cdc})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	f, err := fs.Open(name, vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	return data
}

// readSequential reads the whole file in bs-sized steps, comparing
// against want.
func readSequential(t testing.TB, f vfs.File, want []byte, bs int) {
	t.Helper()
	buf := make([]byte, bs)
	for off := 0; off < len(want); off += bs {
		n, err := f.ReadAt(buf, int64(off))
		if err != nil && err != io.EOF {
			t.Fatalf("read at %d: %v", off, err)
		}
		if !bytes.Equal(buf[:n], want[off:off+n]) {
			t.Fatalf("read at %d: %d bytes mismatch", off, n)
		}
	}
}

func TestReadAheadSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		cdc  codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The read delay is what gives the workers a head start; with
			// a zero-latency backend the reader reaches every scheduled
			// block before a worker picks its job up and steals it back
			// (correct — there is no latency to hide — but then nothing
			// would be published for this test to observe).
			back := memfs.New(memfs.WithReadDelay(200 * time.Microsecond))
			want := writeThroughMount(t, back, tc.cdc, "ckpt", 64<<10)
			fs := mount(t, back, Options{
				ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 4,
				ReadAhead: 4, Codec: tc.cdc,
			})
			f, err := fs.Open("ckpt", vfs.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Two passes: the first warms detection mid-way, the second
			// starts prefetching from its second read.
			readSequential(t, f, want, 2048)
			readSequential(t, f, want, 2048)
			// Let in-flight jobs publish, then read once more for hits.
			time.Sleep(20 * time.Millisecond)
			readSequential(t, f, want, 2048)
			st := fs.Stats()
			if tc.cdc == nil {
				// A plain file's reads go straight to the backend.
				if st.PrefetchedBytes != 0 || st.PrefetchHits != 0 {
					t.Errorf("a plain file was read ahead: %+v", st)
				}
				return
			}
			if st.PrefetchedBytes == 0 {
				t.Error("sequential reads published no prefetched bytes")
			}
			if st.PrefetchHits == 0 {
				t.Error("sequential reads never hit the read-ahead cache")
			}
		})
	}
}

func TestReadAheadRandomReadsDoNotPrefetch(t *testing.T) {
	back := memfs.New()
	want := writeThroughMount(t, back, nil, "ckpt", 64<<10)
	fs := mount(t, back, Options{
		ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2, ReadAhead: 4,
	})
	f, err := fs.Open("ckpt", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 512)
	last := int64(-1)
	for i := 0; i < 200; i++ {
		off := rng.Int63n(int64(len(want) - len(buf)))
		if off == last+int64(len(buf)) {
			continue // don't accidentally look sequential
		}
		last = off
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[off:off+int64(len(buf))]) {
			t.Fatalf("random read at %d mismatch", off)
		}
	}
	if st := fs.Stats(); st.PrefetchedBytes != 0 {
		t.Errorf("random reads triggered read-ahead: %+v", st)
	}
}

// TestReadAheadInvalidatedByWrite overwrites part of a file whose frames
// are cached and reads it back while the write is buffered and once it is
// durable. A write invalidates no cached frame: the overwrite is a new
// frame, which the read applies over the cached older one (the name is
// older than that rule).
func TestReadAheadInvalidatedByWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		cdc  codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := memfs.New()
			want := writeThroughMount(t, back, tc.cdc, "ckpt", 64<<10)
			fs := mount(t, back, Options{
				ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 4,
				ReadAhead: 8, Codec: tc.cdc,
			})
			f, err := fs.Open("ckpt", vfs.ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Warm the cache over the whole file.
			readSequential(t, f, want, 4096)
			time.Sleep(20 * time.Millisecond)
			// Overwrite a region the cache may hold, then read it back at
			// every pipeline stage: buffered, drained.
			patch := bytes.Repeat([]byte{0xAB}, 8192)
			copy(want[16384:], patch)
			if _, err := f.WriteAt(patch, 16384); err != nil {
				t.Fatal(err)
			}
			readSequential(t, f, want, 4096) // overlay must win while buffered
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			readSequential(t, f, want, 4096) // durable base must be fresh
		})
	}
}

// TestReadAheadSurvivesAppend: a write does not throw away the frames a
// stream has read ahead. A stream is three frames into a deflate
// container with at least four more decoded ahead of it when a second
// handle appends a frame and closes; the stream then reads the rest,
// the appended bytes included, and no prefetched frame was wasted.
func TestReadAheadSurvivesAppend(t *testing.T) {
	const (
		size  = 64 << 10
		frame = 4096
	)
	back := memfs.New()
	want := writeThroughMount(t, back, codec.Deflate(), "ckpt", size)
	fs := mount(t, back, Options{
		ChunkSize: frame, BufferPoolSize: 64 << 10, IOThreads: 4,
		ReadAhead: 8, Codec: codec.Deflate(),
	})
	f, err := fs.Open("ckpt", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, frame)
	off := 0
	for ; off < 3*frame; off += frame {
		if _, err := f.ReadAt(buf, int64(off)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want[off:off+frame]) {
			t.Fatalf("read at %d: mismatch", off)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fs.Stats().PrefetchedBytes < 4*frame {
		if time.Now().After(deadline) {
			t.Fatalf("read-ahead published %d bytes, want at least 4 frames", fs.Stats().PrefetchedBytes)
		}
		time.Sleep(100 * time.Microsecond)
	}
	w, err := fs.Open("ckpt", vfs.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	tail := bytes.Repeat([]byte{0x5E}, frame)
	if _, err := w.WriteAt(tail, size); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want = append(want, tail...)
	for ; off < len(want); off += frame {
		n, err := f.ReadAt(buf, int64(off))
		if err != nil && err != io.EOF {
			t.Fatalf("read at %d: %v", off, err)
		}
		if !bytes.Equal(buf[:n], want[off:off+frame]) {
			t.Fatalf("read at %d: %d bytes mismatch", off, n)
		}
	}
	if st := fs.Stats(); st.PrefetchWasted != 0 {
		t.Errorf("the append threw away %d prefetched frames (%d hits, %d misses)", st.PrefetchWasted, st.PrefetchHits, st.PrefetchMisses)
	}
}

func TestReadAheadInvalidatedByTruncate(t *testing.T) {
	back := memfs.New()
	want := writeThroughMount(t, back, nil, "ckpt", 64<<10)
	fs := mount(t, back, Options{
		ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 4, ReadAhead: 8,
	})
	f, err := fs.Open("ckpt", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	readSequential(t, f, want, 4096)
	time.Sleep(20 * time.Millisecond)
	if err := f.Truncate(8192); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 16384); err != io.EOF {
		t.Errorf("read past truncation point: err=%v, want EOF", err)
	}
	readSequential(t, f, want[:8192], 4096)
}

// TestPrefetchStressNoStaleReads races sequential readers against a
// writer that rewrites (and periodically truncate-resets) the file with
// monotonically increasing version bytes. After the writer publishes
// version v (write + Sync), no byte anywhere in the file may ever read
// below v again: a stale prefetched block would. Run with -race.
func TestPrefetchStressNoStaleReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		cdc  codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				fileSize = 64 << 10
				rounds   = 30
				readers  = 3
			)
			back := memfs.New(memfs.WithReadDelay(50 * time.Microsecond))
			fs := mount(t, back, Options{
				ChunkSize: 4096, BufferPoolSize: 256 << 10, IOThreads: 4,
				ReadAhead: 4, Codec: tc.cdc,
			})
			w, err := fs.Open("ckpt", vfs.ReadWrite|vfs.Create|vfs.Trunc)
			if err != nil {
				t.Fatal(err)
			}
			var version atomic.Int64
			var done atomic.Bool
			var wg sync.WaitGroup
			fail := func(format string, args ...any) {
				t.Helper()
				t.Errorf(format, args...)
				done.Store(true)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				buf := make([]byte, 4096)
				for v := int64(1); v <= rounds && !done.Load(); v++ {
					if v%10 == 0 {
						// Reset: readers see EOF or fresh bytes, never old.
						if err := w.Truncate(0); err != nil {
							fail("truncate: %v", err)
							return
						}
					}
					for i := range buf {
						buf[i] = byte(v)
					}
					for off := 0; off < fileSize; off += len(buf) {
						if _, err := w.WriteAt(buf, int64(off)); err != nil {
							fail("write v%d: %v", v, err)
							return
						}
					}
					if err := w.Sync(); err != nil {
						fail("sync v%d: %v", v, err)
						return
					}
					version.Store(v)
				}
			}()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					f, err := fs.Open("ckpt", vfs.ReadOnly)
					if err != nil {
						fail("reader open: %v", err)
						return
					}
					defer f.Close()
					buf := make([]byte, 8192)
					for !done.Load() {
						for off := 0; off < fileSize && !done.Load(); off += len(buf) {
							floor := version.Load()
							n, err := f.ReadAt(buf, int64(off))
							if err != nil && err != io.EOF {
								fail("reader %d at %d: %v", r, off, err)
								return
							}
							for i := 0; i < n; i++ {
								if int64(buf[i]) < floor {
									fail("reader %d: stale byte %d at %d (floor v%d)",
										r, buf[i], off+i, floor)
									return
								}
							}
						}
					}
				}(r)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Quiesced verification: every byte must now be exactly the
			// final version — any surviving stale prefetch would differ.
			final := byte(version.Load())
			f, err := fs.Open("ckpt", vfs.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 8192)
			for pass := 0; pass < 3; pass++ {
				for off := 0; off < fileSize; off += len(buf) {
					n, err := f.ReadAt(buf, int64(off))
					if err != nil && err != io.EOF {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						if buf[i] != final {
							t.Fatalf("pass %d: byte %d at %d, want v%d", pass, buf[i], off+i, final)
						}
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if st := fs.Stats(); st.PrefetchedBytes == 0 {
				t.Log("note: stress run published no prefetched bytes")
			}
		})
	}
}

// benchmarkRestartRead measures sequential restart-read throughput over
// a 200µs-latency backend, at the default read-ahead depth.
func benchmarkRestartRead(b *testing.B, cdc codec.Codec) {
	const (
		fileSize = 4 << 20
		bs       = 32 << 10
		chunk    = 64 << 10
	)
	back := memfs.New(memfs.WithReadDelay(200 * time.Microsecond))
	want := writeThroughMountChunk(b, back, cdc, "ckpt", fileSize, chunk)
	fs, err := Mount(back, Options{
		ChunkSize: chunk, BufferPoolSize: 64 * chunk, IOThreads: 4, Codec: cdc,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Open("ckpt", vfs.ReadOnly)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, bs)
	var off int64
	b.SetBytes(bs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			b.Fatal(err)
		}
		if !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
			b.Fatalf("mismatch at %d", off)
		}
		off += int64(n)
		if off >= fileSize {
			off = 0
		}
	}
	b.StopTimer()
	st := fs.Stats()
	b.ReportMetric(float64(st.PrefetchHits), "prefetch-hits")
	b.ReportMetric(float64(st.PrefetchWasted), "prefetch-wasted")
}

// writeThroughMountChunk is writeThroughMount with an explicit chunk
// size, so benchmark containers have chunk-sized frames.
func writeThroughMountChunk(t testing.TB, back vfs.FS, cdc codec.Codec, name string, size int, chunk int64) []byte {
	t.Helper()
	fs, err := Mount(back, Options{ChunkSize: chunk, BufferPoolSize: 64 * chunk, IOThreads: 4, Codec: cdc})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	f, err := fs.Open(name, vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	return data
}

func BenchmarkRestartRead(b *testing.B) {
	b.Run("raw/ra=8", func(b *testing.B) { benchmarkRestartRead(b, nil) })
	b.Run("deflate/ra=8", func(b *testing.B) { benchmarkRestartRead(b, codec.Deflate()) })
}
