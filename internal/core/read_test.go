package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// readMountCases runs a subtest per mount flavour the overlay read path
// must serve: raw passthrough files and deflate frame containers.
func readMountCases(t *testing.T, f func(t *testing.T, back *memfs.FS, fs *FS)) {
	t.Helper()
	for _, tc := range []struct {
		name  string
		codec codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := memfs.New()
			fs := mount(t, back, Options{ChunkSize: 64, BufferPoolSize: 1024, IOThreads: 2, Codec: tc.codec})
			f(t, back, fs)
		})
	}
}

func TestReadFromActiveChunkNoFlush(t *testing.T) {
	// A read of buffered data must come from the active chunk without
	// flushing it: the backend must still be empty afterwards (the old
	// path drained the pipeline, landing the partial chunk).
	readMountCases(t, func(t *testing.T, back *memfs.FS, fs *FS) {
		f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		want := []byte("still buffered")
		if _, err := f.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read = %q, want %q", got, want)
		}
		if info, _ := back.Stat("f"); info.Size != 0 {
			t.Errorf("backend size = %d after read: the read flushed the pipeline", info.Size)
		}
		st := fs.Stats()
		if st.ReadsFromBuffer != 1 || st.ReadDrainsAvoided != 1 {
			t.Errorf("ReadsFromBuffer=%d ReadDrainsAvoided=%d, want 1, 1",
				st.ReadsFromBuffer, st.ReadDrainsAvoided)
		}
	})
}

func TestReadFromInflightChunks(t *testing.T) {
	// With a slow backend, full chunks sit in the work queue when the
	// read arrives; the overlay must serve them without waiting for the
	// IO workers.
	for _, tc := range []struct {
		name  string
		codec codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := memfs.New(memfs.WithWriteDelay(20 * time.Millisecond))
			fs := mount(t, back, Options{ChunkSize: 64, BufferPoolSize: 2048, IOThreads: 2, Codec: tc.codec})
			f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 64*8) // 8 full chunks
			for i := range want {
				want[i] = byte(i % 251)
			}
			start := time.Now()
			if _, err := f.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("in-flight read mismatch")
			}
			// 8 chunks x 20ms on 2 workers is >= 80ms of backend time; a
			// drain-free read path returns well before that.
			if el := time.Since(start); el > 60*time.Millisecond {
				t.Logf("write+read took %v (read may have stalled on the pipeline)", el)
			}
			if st := fs.Stats(); st.ReadsFromBuffer == 0 {
				t.Error("read did not use the buffered overlay")
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReadOverlayShadowsOlderWrites(t *testing.T) {
	// Overwrites must resolve newest-last across all three layers:
	// durable base, in-flight chunks (flush order), active chunk.
	readMountCases(t, func(t *testing.T, back *memfs.FS, fs *FS) {
		f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Layer 1: a full chunk, synced to the backend.
		if _, err := f.WriteAt(bytes.Repeat([]byte{'A'}, 64), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		// Layer 2: a full chunk overwrite (enqueued, possibly landed).
		if _, err := f.WriteAt(bytes.Repeat([]byte{'B'}, 64), 0); err != nil {
			t.Fatal(err)
		}
		// Layer 3: a partial overwrite still in the active chunk.
		if _, err := f.WriteAt(bytes.Repeat([]byte{'C'}, 10), 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 64)
		if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		want := append(bytes.Repeat([]byte{'C'}, 10), bytes.Repeat([]byte{'B'}, 54)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("overlay precedence: got %q, want %q", got, want)
		}
	})
}

// gatedFS wraps a backend and blocks WriteAt calls selected by match
// until the gate channel is closed, letting tests force IO workers to
// complete overlapping chunks out of order deterministically.
type gatedFS struct {
	vfs.FS
	gate  chan struct{}
	match func(p []byte) bool
}

func (g *gatedFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	f, err := g.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	vfs.File
	g *gatedFS
}

func (f *gatedFile) WriteAt(p []byte, off int64) (int, error) {
	if f.g.match(p) {
		<-f.g.gate
	}
	return f.File.WriteAt(p, off)
}

func TestReadSeesNewerDurableOverOlderInflight(t *testing.T) {
	// Two overlapping chunks: the older one (seq 0) is stalled inside the
	// backend write while the newer one (seq 1) lands durable. The
	// overlay must still resolve to the newer bytes — a naive
	// apply-all-in-flight-chunks overlay would copy the stalled seq-0
	// buffer over seq 1's already-durable data.
	for _, tc := range []struct {
		name  string
		codec codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			// Stall exactly the write carrying chunk seq 0: for framed
			// mounts that is the frame whose header says Seq == 0, for raw
			// mounts the payload of all-'A' bytes.
			match := func(p []byte) bool {
				if len(p) >= codec.HeaderSize && codec.Sniff(p) {
					h, err := codec.ParseHeader(p)
					return err == nil && h.Seq == 0
				}
				return len(p) > 0 && p[0] == 'A'
			}
			back := &gatedFS{FS: memfs.New(), gate: gate, match: match}
			fs := mount(t, back, Options{ChunkSize: 64, BufferPoolSize: 1024, IOThreads: 2, Codec: tc.codec})
			// Open the gate on failure too, or the Unmount cleanup would
			// hang on the stalled write (cleanups run LIFO: this one runs
			// before mount's Unmount).
			var gateOnce sync.Once
			openGate := func() { gateOnce.Do(func() { close(gate) }) }
			t.Cleanup(openGate)
			f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{'A'}, 64), 0); err != nil { // seq 0, stalls
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{'B'}, 64), 0); err != nil { // seq 1
				t.Fatal(err)
			}
			// Wait until the newer chunk is durable (seq 0 is still stuck).
			e := f.(*file).entry
			deadline := time.Now().Add(10 * time.Second)
			for {
				e.mu.Lock()
				done := e.doneChunks
				e.mu.Unlock()
				if done >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("newer chunk never completed")
				}
				time.Sleep(time.Millisecond)
			}
			got := make([]byte, 64)
			if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if want := bytes.Repeat([]byte{'B'}, 64); !bytes.Equal(got, want) {
				t.Fatalf("read returned older in-flight data: got %q...", got[:8])
			}
			openGate()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.codec != nil {
				// Frame containers restore write order durably too (raw
				// mounts document worker-order for landed overwrites).
				got, err := vfs.ReadFile(fs, "f")
				if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'B'}, 64)) {
					t.Fatalf("durable framed content = %q (%v)", got, err)
				}
			}
		})
	}
}

func TestReadOnlyHandleSeesBufferedWrites(t *testing.T) {
	// A read-only open of an already-open path shares the entry and must
	// see the writer's buffered data through the overlay.
	readMountCases(t, func(t *testing.T, back *memfs.FS, fs *FS) {
		w, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		want := []byte("shared view")
		if _, err := w.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		r, err := fs.Open("f", vfs.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := make([]byte, len(want))
		if _, err := r.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read-only handle read %q, want %q", got, want)
		}
	})
}

func TestReadInHoleBetweenBufferedExtents(t *testing.T) {
	// Landed data at the front, buffered data at the back: a read in the
	// hole between them must return zeros (sparse semantics), and a read
	// spanning everything must stitch all three regions.
	readMountCases(t, func(t *testing.T, back *memfs.FS, fs *FS) {
		f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(bytes.Repeat([]byte{'a'}, 10), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil { // land the front
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{'z'}, 10), 90); err != nil {
			t.Fatal(err)
		}
		hole := make([]byte, 10)
		if _, err := f.ReadAt(hole, 40); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(hole, make([]byte, 10)) {
			t.Fatalf("hole read = %q, want zeros", hole)
		}
		all := make([]byte, 100)
		if _, err := f.ReadAt(all, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		want := make([]byte, 100)
		copy(want, bytes.Repeat([]byte{'a'}, 10))
		copy(want[90:], bytes.Repeat([]byte{'z'}, 10))
		if !bytes.Equal(all, want) {
			t.Fatal("stitched read mismatch")
		}
		if info, _ := f.Stat(); info.Size != 100 {
			t.Errorf("size = %d, want 100", info.Size)
		}
	})
}

func TestReadAtEOFWithBufferedTail(t *testing.T) {
	readMountCases(t, func(t *testing.T, back *memfs.FS, fs *FS) {
		f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		n, err := f.ReadAt(buf, 6)
		if n != 4 || err != io.EOF {
			t.Errorf("short read = (%d, %v), want (4, EOF)", n, err)
		}
		if string(buf[:n]) != "6789" {
			t.Errorf("tail = %q", buf[:n])
		}
		if n, err := f.ReadAt(buf, 100); n != 0 || err != io.EOF {
			t.Errorf("read past EOF = (%d, %v), want (0, EOF)", n, err)
		}
	})
}

func TestZeroLengthWriteDoesNotExtend(t *testing.T) {
	// POSIX: write(fd, p, 0) must not extend the file, whatever the
	// offset.
	readMountCases(t, func(t *testing.T, back *memfs.FS, fs *FS) {
		f, err := fs.Open("z", vfs.ReadWrite|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.WriteAt(nil, 100); n != 0 || err != nil {
			t.Fatalf("zero write = (%d, %v)", n, err)
		}
		if info, _ := f.Stat(); info.Size != 0 {
			t.Fatalf("size after zero write = %d, want 0", info.Size)
		}
		if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{}, 1000); err != nil {
			t.Fatal(err)
		}
		if info, _ := f.Stat(); info.Size != 3 {
			t.Fatalf("size after zero write at 1000 = %d, want 3", info.Size)
		}
		// Reads must not see a zero-filled extension either.
		buf := make([]byte, 10)
		n, err := f.ReadAt(buf, 0)
		if n != 3 || err != io.EOF {
			t.Fatalf("read = (%d, %v), want (3, EOF)", n, err)
		}
		if string(buf[:n]) != "abc" {
			t.Fatalf("read = %q", buf[:n])
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if info, err := fs.Stat("z"); err != nil || info.Size != 3 {
			t.Fatalf("closed Stat = %+v, %v, want size 3", info, err)
		}
	})
}

func TestRenameRekeysOpenEntry(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 64})
	f, err := fs.Open("old", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("buffered"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("old", "new"); err != nil {
		t.Fatal(err)
	}
	// The old name is gone: an open must not find a stale table entry.
	if _, err := fs.Open("old", vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("open of renamed-away path = %v, want ErrNotExist", err)
	}
	// The new name resolves to the same live entry.
	g, err := fs.Open("new", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if g.(*file).entry != f.(*file).entry {
		t.Error("open of renamed path did not share the re-keyed entry")
	}
	// The open handle keeps working across the rename.
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "buffered" {
		t.Fatalf("read after rename = %q", buf)
	}
	if _, err := f.WriteAt([]byte("+more"), 8); err != nil {
		t.Fatal(err)
	}
	// Stat on the pre-rename handle must resolve the entry's current
	// name, not the open-time one.
	if info, err := f.Stat(); err != nil || info.Size != 13 {
		t.Errorf("handle Stat after rename = %+v, %v, want size 13", info, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(back, "new")
	if err != nil || string(got) != "buffered+more" {
		t.Fatalf("renamed file = %q, %v", got, err)
	}
	if fs.lookupEntry("new") != nil || fs.lookupEntry("old") != nil {
		t.Error("table entries leaked after last close")
	}
}

func TestRenameOverOpenDestinationRejected(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{})
	if err := vfs.WriteFile(fs, "src", []byte("source")); err != nil {
		t.Fatal(err)
	}
	dst, err := fs.Open("dst", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := fs.Rename("src", "dst"); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("rename over open destination = %v, want ErrInvalid", err)
	}
	// The destination handle still serves its own file.
	if _, err := dst.WriteAt([]byte("x"), 0); err != nil {
		t.Errorf("destination handle broken after rejected rename: %v", err)
	}
}

func TestRemoveEvictsOpenEntry(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 64})
	f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("doomed"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("f", vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("open of removed path = %v, want ErrNotExist", err)
	}
	// The orphaned handle keeps serving its buffered data (POSIX unlink
	// of an open file).
	buf := make([]byte, 6)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "doomed" {
		t.Fatalf("orphan read = %q", buf)
	}
	// A fresh create under the same name is an independent file.
	g, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if g.(*file).entry == f.(*file).entry {
		t.Fatal("create after remove shared the removed entry")
	}
	if _, err := g.WriteAt([]byte("fresh!"), 0); err != nil {
		t.Fatal(err)
	}
	// Closing the orphan must not tear down the new entry's table slot.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.lookupEntry("f") != g.(*file).entry {
		t.Error("orphan close evicted the new entry from the table")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(back, "f")
	if err != nil || string(got) != "fresh!" {
		t.Fatalf("recreated file = %q, %v", got, err)
	}
}

// blockingRemoveFS fails Remove with err after waiting on gate, letting a
// test interleave a last close with an in-progress failing Remove.
type blockingRemoveFS struct {
	vfs.FS
	gate chan struct{}
	err  error
}

func (b *blockingRemoveFS) Remove(name string) error {
	<-b.gate
	return b.err
}

func TestRemoveFailureDoesNotResurrectClosedEntry(t *testing.T) {
	// Remove evicts the entry, then blocks in the (failing) backend
	// remove; the last close lands meanwhile and closes the backend
	// handle. The failure-restore path must not reinstall the dead entry.
	boom := errors.New("remove refused")
	back := &blockingRemoveFS{FS: memfs.New(), gate: make(chan struct{}), err: boom}
	fs := mount(t, back, Options{})
	f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fs.Remove("f") }()
	// Wait for the eviction (Remove holds no locks while blocked in the
	// backend call).
	deadline := time.Now().Add(10 * time.Second)
	for fs.lookupEntry("f") != nil {
		if time.Now().After(deadline) {
			t.Fatal("entry never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	close(back.gate)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("Remove = %v, want injected error", err)
	}
	if fs.lookupEntry("f") != nil {
		t.Error("failed Remove resurrected a fully closed entry")
	}
	// The path is still usable through a fresh open.
	g, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("x"), 0); err != nil {
		t.Errorf("write through fresh entry: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveFailureRestoresEntry(t *testing.T) {
	// A backend that refuses the remove must leave the table intact.
	back := memfs.New()
	fs := mount(t, back, Options{})
	if err := fs.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("d/f", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fs.Remove("d"); err == nil { // non-empty directory
		t.Fatal("remove of non-empty dir succeeded")
	}
	if fs.lookupEntry("d/f") == nil {
		t.Error("entry lost")
	}
	// Removing the open file itself fails only if the backend fails; memfs
	// allows it, so just exercise the restore path via a missing file.
	if err := fs.Remove("missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("remove missing = %v", err)
	}
}

// TestMixedWorkloadStress hammers shared entries with concurrent writes,
// overlay reads, truncates, and renames on raw and deflate mounts. Run
// with -race. Assertions: sequential streams read back exactly
// (read-your-writes through every pipeline stage), whole-chunk overwrites
// are never torn, and on framed mounts overwrite versions observed by one
// reader never go backwards.
func TestMixedWorkloadStress(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := memfs.New()
			fs := mount(t, back, Options{ChunkSize: 4096, BufferPoolSize: 16 * 4096, IOThreads: 4, Codec: tc.codec})
			var wg sync.WaitGroup

			// --- stream: sequential checkpoint writes + random readers.
			const blockSize, nBlocks = 512, 256
			blockData := func(b int64) []byte {
				buf := make([]byte, blockSize)
				for i := range buf {
					buf[i] = byte((b*7 + int64(i)) % 251)
				}
				return buf
			}
			stream, err := fs.Open("stream", vfs.ReadWrite|vfs.Create)
			if err != nil {
				t.Fatal(err)
			}
			var watermark atomic.Int64
			wg.Add(1)
			go func() {
				defer wg.Done()
				rbuf := make([]byte, blockSize)
				for b := int64(0); b < nBlocks; b++ {
					if _, err := stream.WriteAt(blockData(b), b*blockSize); err != nil {
						t.Errorf("stream write: %v", err)
						return
					}
					watermark.Store(b + 1)
					if b%8 == 0 { // writer read-back: strict read-your-writes
						if _, err := stream.ReadAt(rbuf, b*blockSize); err != nil && err != io.EOF {
							t.Errorf("stream read-back: %v", err)
							return
						}
						if !bytes.Equal(rbuf, blockData(b)) {
							t.Errorf("read-your-writes violated at block %d", b)
							return
						}
					}
				}
			}()
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					buf := make([]byte, blockSize)
					for i := 0; i < 400; i++ {
						wm := watermark.Load()
						if wm == 0 {
							continue
						}
						b := rng.Int63n(wm)
						if _, err := stream.ReadAt(buf, b*blockSize); err != nil && err != io.EOF {
							t.Errorf("stream read: %v", err)
							return
						}
						if !bytes.Equal(buf, blockData(b)) {
							t.Errorf("stale or torn read of block %d", b)
							return
						}
					}
				}(int64(r))
			}

			// --- over: whole-chunk overwrites at offset 0. Each version is
			// one 4096-byte chunk: 8-byte version header + uniform filler.
			over, err := fs.Open("over", vfs.ReadWrite|vfs.Create)
			if err != nil {
				t.Fatal(err)
			}
			framed := tc.codec != nil
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 4096)
				for v := uint64(1); v <= 200; v++ {
					binary.LittleEndian.PutUint64(buf, v)
					fill := byte(v%250 + 1)
					for i := 8; i < len(buf); i++ {
						buf[i] = fill
					}
					if _, err := over.WriteAt(buf, 0); err != nil {
						t.Errorf("overwrite: %v", err)
						return
					}
				}
			}()
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, 4096)
					var last uint64
					for i := 0; i < 300; i++ {
						n, err := over.ReadAt(buf, 0)
						if err != nil && err != io.EOF {
							t.Errorf("overwrite read: %v", err)
							return
						}
						if n == 0 {
							continue // nothing written yet
						}
						v := binary.LittleEndian.Uint64(buf)
						fill := byte(v%250 + 1)
						for j := 8; j < n; j++ {
							if buf[j] != fill {
								t.Errorf("torn overwrite read: version %d byte %d = %d", v, j, buf[j])
								return
							}
						}
						// Raw mounts leave overlapping chunks to land in
						// worker order, so landed versions may regress
						// (paper workloads never overwrite); framed mounts
						// restore write order via frame sequence numbers.
						if framed && v < last {
							t.Errorf("version went backwards: %d after %d", v, last)
							return
						}
						last = v
					}
				}()
			}

			// --- churn: truncate/write/read mix, error-freedom only.
			churn, err := fs.Open("churn", vfs.ReadWrite|vfs.Create)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 1000)
				var off int64
				for i := 0; i < 150; i++ {
					if _, err := churn.WriteAt(buf, off); err != nil {
						t.Errorf("churn write: %v", err)
						return
					}
					off += 1000
					if off > 20000 {
						if err := churn.Truncate(0); err != nil {
							t.Errorf("churn truncate: %v", err)
							return
						}
						off = 0
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 512)
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 300; i++ {
					if _, err := churn.ReadAt(buf, rng.Int63n(25000)); err != nil && err != io.EOF {
						t.Errorf("churn read: %v", err)
						return
					}
					if _, err := fs.Stat("churn"); err != nil {
						t.Errorf("churn stat: %v", err)
						return
					}
				}
			}()

			// --- ren: the handle must keep read-your-writes while the path
			// is renamed underneath it.
			ren, err := fs.Open("ren0", vfs.ReadWrite|vfs.Create)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				cur := "ren0"
				for i := 1; i <= 40; i++ {
					next := fmt.Sprintf("ren%d", i%2)
					if next == cur {
						next = fmt.Sprintf("ren%d", (i+1)%2)
					}
					if err := fs.Rename(cur, next); err != nil {
						t.Errorf("rename %s -> %s: %v", cur, next, err)
						return
					}
					cur = next
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 128)
				rbuf := make([]byte, 128)
				for i := int64(0); i < 100; i++ {
					for j := range buf {
						buf[j] = byte(i)
					}
					if _, err := ren.WriteAt(buf, i*128); err != nil {
						t.Errorf("ren write: %v", err)
						return
					}
					if _, err := ren.ReadAt(rbuf, i*128); err != nil && err != io.EOF {
						t.Errorf("ren read: %v", err)
						return
					}
					if !bytes.Equal(rbuf, buf) {
						t.Errorf("ren read-your-writes violated at block %d", i)
						return
					}
				}
			}()

			wg.Wait()
			for _, f := range []vfs.File{stream, over, churn, ren} {
				if err := f.Close(); err != nil {
					t.Errorf("close %s: %v", f.Name(), err)
				}
			}

			// Final durable check: the stream reads back exactly through a
			// fresh handle.
			got, err := vfs.ReadFile(fs, "stream")
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 0, nBlocks*blockSize)
			for b := int64(0); b < nBlocks; b++ {
				want = append(want, blockData(b)...)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("stream content mismatch after close")
			}
			st := fs.Stats()
			if st.ReadsFromBuffer == 0 || st.ReadDrainsAvoided == 0 {
				t.Errorf("overlay path not exercised: %+v", st)
			}
		})
	}
}
