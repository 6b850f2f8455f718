package core

import (
	"bytes"
	"errors"
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

// Stale-bytes hunts for the restart read pipeline's small-read paths. A
// stream of small sequential reads keeps what follows it in its handle's
// copy (and, in a container, the decoded frame in the entry's cache);
// every way the entry can change under the stream must kill that extent
// before the stream's next read.

// streamHunt is one mount with a file being streamed in small reads while
// the test mutates it; model is what the file must read as.
type streamHunt struct {
	t     *testing.T
	fs    *FS
	back  *readCountFS // counts the mount's backend reads
	f     vfs.File     // the streaming handle, ReadWrite
	model []byte
	off   int64
}

const (
	huntChunk = 4096
	huntRead  = 64
)

func newStreamHunt(t *testing.T, cdc codec.Codec, opts ...memfs.Option) *streamHunt {
	t.Helper()
	back := memfs.New(opts...)
	return newStreamHuntOver(t, cdc, back, back)
}

// newStreamHuntOver writes the file to back, then mounts over, a backend
// that wraps it.
func newStreamHuntOver(t *testing.T, cdc codec.Codec, back, over vfs.FS) *streamHunt {
	t.Helper()
	model := writeThroughMountChunk(t, back, cdc, "img", 6*huntChunk, huntChunk)
	counted := newReadCountFS(over)
	fs := mount(t, counted, Options{
		ChunkSize: huntChunk, BufferPoolSize: 16 * huntChunk, IOThreads: 3,
		ReadAhead: 4, Codec: cdc,
	})
	f, err := fs.Open("img", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &streamHunt{t: t, fs: fs, back: counted, f: f, model: model}
}

// stream issues calls small sequential reads through f, continuing where
// the stream stands, and compares each with the model (EOF included).
func (h *streamHunt) stream(f vfs.File, calls int) {
	h.t.Helper()
	buf := make([]byte, huntRead)
	for i := 0; i < calls; i++ {
		n, err := f.ReadAt(buf, h.off)
		if err != nil && err != io.EOF {
			h.t.Fatalf("read at %d: %v", h.off, err)
		}
		wantN := 0
		if h.off < int64(len(h.model)) {
			wantN = copy(make([]byte, huntRead), h.model[h.off:])
		}
		if n != wantN || (err == io.EOF) != (h.off+huntRead > int64(len(h.model))) {
			h.t.Fatalf("read at %d: n=%d err=%v, model has %d of %d bytes there", h.off, n, err, wantN, len(h.model))
		}
		if !bytes.Equal(buf[:n], h.model[h.off:h.off+int64(n)]) {
			h.t.Fatalf("stale or wrong bytes at %d", h.off)
		}
		h.off += int64(n)
	}
}

// warm puts the stream a few reads into the block starting at block and
// checks that the handle's copy was refilled there, and that some reads
// were served from it, without a base read (a backend read of a plain
// file; a frame looked up, in a container). The copy then holds what
// follows the stream's position, so the next reads are the copy's unless
// a mutation has made it miss.
func (h *streamHunt) warm(block int64, framed bool) {
	h.t.Helper()
	before := h.fs.Stats()
	backBefore, _ := h.back.reads("img")
	h.off = block * huntChunk
	h.stream(h.f, 6)
	st := h.fs.Stats()
	reads := st.Reads - before.Reads
	base := st.PrefetchHits + st.PrefetchMisses - before.PrefetchHits - before.PrefetchMisses
	if !framed {
		backAfter, _ := h.back.reads("img")
		base = backAfter - backBefore
	}
	if reads <= base {
		h.t.Fatalf("%d reads made %d base reads: none was served from the handle's copy", reads, base)
	}
	if c := h.f.(*file).copy; c == nil || c.off < block*huntChunk || c.off+c.n <= h.off {
		h.t.Fatalf("the handle's copy was not refilled in block %d, or holds nothing past the stream's position %d", block, h.off)
	}
}

func (h *streamHunt) write(p []byte, off int64) {
	h.t.Helper()
	if _, err := h.f.WriteAt(p, off); err != nil {
		h.t.Fatal(err)
	}
	if end := off + int64(len(p)); end > int64(len(h.model)) {
		h.model = append(h.model, make([]byte, end-int64(len(h.model)))...)
	}
	copy(h.model[off:], p)
}

func TestStreamReadsNeverOutliveGeneration(t *testing.T) {
	patch := bytes.Repeat([]byte{0xA7}, 300)
	for _, tc := range []struct {
		name string
		cdc  codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		framed := tc.cdc != nil
		t.Run(tc.name+"/write", func(t *testing.T) {
			h := newStreamHunt(t, tc.cdc)
			h.warm(1, framed)
			h.write(patch, h.off+2*huntRead) // lands in the cached rest of the block
			h.stream(h.f, 12)                // buffered: the overlay must win
			if err := h.f.Sync(); err != nil {
				t.Fatal(err)
			}
			h.off -= 6 * huntRead
			h.stream(h.f, 12) // durable: the base must be fresh
		})
		t.Run(tc.name+"/write-window", func(t *testing.T) {
			// A write counts itself as its last step, so a refill while it
			// runs reads the bytes from before the write under the write
			// count it will move. Hold a write there — waiting for a pool
			// chunk while every chunk is another file's write stuck in the
			// backend — stream on through it, then let it go.
			back := memfs.New()
			gate := make(chan struct{})
			h := newStreamHuntOver(t, tc.cdc, back, &gatedFS{FS: back, gate: gate, match: func([]byte) bool { return true }})
			var release sync.Once
			openGate := func() { release.Do(func() { close(gate) }) }
			t.Cleanup(openGate) // before the unmount, should the test stop early
			h.warm(2, framed)
			x, err := h.fs.Open("x", vfs.WriteOnly|vfs.Create)
			if err != nil {
				t.Fatal(err)
			}
			xWrote := make(chan error, 1)
			go func() {
				_, err := x.WriteAt(make([]byte, 17*huntChunk), 0) // one chunk more than the pool
				xWrote <- err
			}()
			for h.fs.Stats().PoolWaits == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			waits := h.fs.Stats().PoolWaits
			at := h.off + huntRead // what the next read refills the copy with
			wrote := make(chan error, 1)
			go func() {
				_, err := h.f.WriteAt(patch, at)
				wrote <- err
			}()
			for h.fs.Stats().PoolWaits == waits { // the write is blocked on the pool
				time.Sleep(100 * time.Microsecond)
			}
			h.stream(h.f, 1) // the write has not landed: the old bytes
			if c := h.f.(*file).copy; c == nil || at < c.off || at >= c.off+c.n {
				t.Fatalf("the handle's copy does not hold offset %d: the hunt no longer reaches the write's window", at)
			}
			openGate()
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			copy(h.model[at:], patch)
			h.stream(h.f, 12)
			if err := <-xWrote; err != nil {
				t.Fatal(err)
			}
			if err := x.Close(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(tc.name+"/write-other-handle", func(t *testing.T) {
			h := newStreamHunt(t, tc.cdc)
			h.warm(2, framed)
			w, err := h.fs.Open("img", vfs.WriteOnly)
			if err != nil {
				t.Fatal(err)
			}
			at := h.off + huntRead
			if _, err := w.WriteAt(patch, at); err != nil {
				t.Fatal(err)
			}
			copy(h.model[at:], patch)
			if err := w.Close(); err != nil { // drains: the chunk retires to the base
				t.Fatal(err)
			}
			h.stream(h.f, 12)
		})
		t.Run(tc.name+"/truncate", func(t *testing.T) {
			h := newStreamHunt(t, tc.cdc)
			h.warm(1, framed)
			if framed {
				// A container can only be reset: the stream then reads EOF,
				// and fresh bytes once they are written.
				if err := h.f.Truncate(0); err != nil {
					t.Fatal(err)
				}
				h.model = h.model[:0]
				h.stream(h.f, 2)
				h.write(bytes.Repeat([]byte{0x3C}, 2*huntChunk), 0)
				h.stream(h.f, 12)
				return
			}
			// Cut the file inside the cached extent, then grow it back: the
			// bytes past the cut now read as zeros.
			cut := h.off + huntRead/2
			if err := h.f.Truncate(cut); err != nil {
				t.Fatal(err)
			}
			if err := h.f.Truncate(int64(len(h.model))); err != nil {
				t.Fatal(err)
			}
			clear(h.model[cut:])
			h.stream(h.f, 12)
		})
		t.Run(tc.name+"/rename", func(t *testing.T) {
			h := newStreamHunt(t, tc.cdc)
			h.warm(3, framed)
			if err := h.fs.Rename("img", "moved"); err != nil {
				t.Fatal(err)
			}
			// The old name gets other content; the handle follows the file.
			other := bytes.Repeat([]byte{0x11}, len(h.model))
			if err := vfs.WriteFile(h.fs, "img", other); err != nil {
				t.Fatal(err)
			}
			h.stream(h.f, 12)
			g, err := h.fs.Open("img", vfs.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			moved := h.model
			h.model, h.off = other, 3*huntChunk
			h.stream(g, 12)
			h.model = moved
		})
		t.Run(tc.name+"/remove", func(t *testing.T) {
			h := newStreamHunt(t, tc.cdc)
			h.warm(1, framed)
			if err := h.fs.Remove("img"); err != nil {
				t.Fatal(err)
			}
			other := bytes.Repeat([]byte{0x22}, len(h.model))
			if err := vfs.WriteFile(h.fs, "img", other); err != nil {
				t.Fatal(err)
			}
			h.stream(h.f, 12) // the orphan keeps reading the removed file
			g, err := h.fs.Open("img", vfs.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			h.model, h.off = other, huntChunk
			h.stream(g, 12) // the new file shares nothing with it
		})
		t.Run(tc.name+"/fail", func(t *testing.T) {
			boom := errors.New("backend write failed")
			// The backend takes the writes that make the file, then fails.
			made := memfs.New()
			writeThroughMountChunk(t, made, tc.cdc, "img", 6*huntChunk, huntChunk)
			h := newStreamHunt(t, tc.cdc, memfs.WithWriteError(int(made.Stats().Writes), boom))
			h.warm(2, framed)
			h.write(patch, h.off+huntRead)
			if err := h.f.Sync(); !errors.Is(err, boom) {
				t.Fatalf("Sync = %v, want the backend's failure", err)
			}
			buf := make([]byte, huntRead)
			if _, err := h.f.ReadAt(buf, h.off); !errors.Is(err, boom) {
				t.Fatalf("read after the failure = %v, want the failure", err)
			}
			// complete bumps the generation before it records a failure, so
			// a refill can fall between the two, and only failed tells its
			// copy the entry failed. Recreate that state: record a failure
			// under a warm copy with nothing else changed.
			h = newStreamHunt(t, tc.cdc)
			h.warm(2, framed)
			e := h.f.(*file).entry
			e.mu.Lock()
			e.failLocked(boom)
			e.mu.Unlock()
			if _, err := h.f.ReadAt(buf, h.off); !errors.Is(err, boom) {
				t.Fatalf("read after the failure = %v, want the failure", err)
			}
		})
	}
}

// TestSmallReadStressNoStaleReads is TestPrefetchStressNoStaleReads for
// the small-read paths, with the assertions of that test: readers stream
// the file in 64 B calls — each served from its handle's copy — against
// a writer that rewrites the file in place
// with rising version bytes and from time to time resets it and renames
// it away and back. After the writer publishes
// version v (write + Sync), no byte may ever read below v again. Run with
// -race.
func TestSmallReadStressNoStaleReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		cdc  codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				fileSize = 8 * huntChunk
				rounds   = 40
				readers  = 3
			)
			back := memfs.New(memfs.WithReadDelay(20 * time.Microsecond))
			fs := mount(t, back, Options{
				ChunkSize: huntChunk, BufferPoolSize: 16 * huntChunk, IOThreads: 4,
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
				buf := make([]byte, 1024)
				for v := int64(1); v <= rounds && !done.Load(); v++ {
					switch {
					case v%10 == 0:
						// Reset: readers see EOF or fresh bytes, never old.
						if err := w.Truncate(0); err != nil {
							fail("truncate: %v", err)
							return
						}
					case v%7 == 0:
						// Away and back: the handles follow the file.
						if err := fs.Rename("ckpt", "ckpt.away"); err != nil {
							fail("rename away: %v", err)
							return
						}
						if err := fs.Rename("ckpt.away", "ckpt"); err != nil {
							fail("rename back: %v", err)
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
					time.Sleep(200 * time.Microsecond) // a quiet spell: streams get going
				}
			}()
			// read reads buf at off through f and checks that no byte is
			// older than the version published before the call.
			read := func(r int, f vfs.File, buf []byte, off int64) bool {
				floor := version.Load()
				n, err := f.ReadAt(buf, off)
				if err != nil && err != io.EOF {
					fail("reader %d at %d: %v", r, off, err)
					return false
				}
				for i := 0; i < n; i++ {
					if int64(buf[i]) < floor {
						fail("reader %d: stale byte %d at %d (floor v%d)", r, buf[i], off+int64(i), floor)
						return false
					}
				}
				return true
			}
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
					rng := rand.New(rand.NewSource(int64(r)))
					buf := make([]byte, huntRead)
					for !done.Load() {
						// Streams start anywhere, so a block is met both by a
						// reader before a cached extent and by one inside it.
						start := rng.Intn(fileSize/huntRead) * huntRead
						for off := start; off < fileSize && !done.Load(); off += len(buf) {
							if !read(r, f, buf, int64(off)) {
								return
							}
						}
					}
				}(r)
			}
			// Two more readers share one handle and take its stream's reads
			// in turn: concurrent ReadAt calls on one file, mostly in order,
			// so its detector sees a stream and refills of its copy race
			// reads served from it.
			shared, err := fs.Open("ckpt", vfs.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			var next atomic.Int64
			for r := readers; r < readers+2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					buf := make([]byte, huntRead)
					for !done.Load() {
						if !read(r, shared, buf, (next.Add(huntRead)-huntRead)%fileSize) {
							return
						}
					}
				}(r)
			}
			wg.Wait()
			if err := shared.Close(); err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			final := byte(version.Load())
			f, err := fs.Open("ckpt", vfs.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, huntRead)
			for pass := 0; pass < 2; pass++ {
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
		})
	}
}
