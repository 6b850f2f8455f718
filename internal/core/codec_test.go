package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

func compressiblePayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	words := []string{"checkpoint", "rank", "\x00\x00\x00\x00\x00\x00\x00\x00", "page table "}
	for i := 0; i < n; {
		w := words[rng.Intn(len(words))]
		i += copy(out[i:], w)
	}
	return out
}

func writeThrough(t *testing.T, fs *FS, name string, payload []byte, blockSize int) {
	t.Helper()
	f, err := fs.Open(name, vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(payload); off += blockSize {
		end := off + blockSize
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := f.WriteAt(payload[off:end], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readThrough(t *testing.T, fs *FS, name string) []byte {
	t.Helper()
	b, err := vfs.ReadFile(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRawMountBackendIdentical pins the seed behavior: with the default
// (raw) codec — explicit or implied — the backend file holds exactly the
// logical bytes, with no framing.
func TestRawMountBackendIdentical(t *testing.T) {
	payload := compressiblePayload(300<<10, 1)
	for _, opts := range []Options{
		{ChunkSize: 64 << 10, BufferPoolSize: 256 << 10},
		{ChunkSize: 64 << 10, BufferPoolSize: 256 << 10, Codec: codec.Raw()},
	} {
		backend := memfs.New()
		fs, err := Mount(backend, opts)
		if err != nil {
			t.Fatal(err)
		}
		writeThrough(t, fs, "ckpt.img", payload, 8000)
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		raw, err := vfs.ReadFile(backend, "ckpt.img")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, payload) {
			t.Fatalf("raw mount backend bytes differ from payload (%d vs %d bytes)", len(raw), len(payload))
		}
		st := fs.Stats()
		if st.Frames != 0 || st.CodecBytesIn != 0 {
			t.Errorf("raw mount recorded codec activity: %+v", st)
		}
	}
}

// TestDeflateMountRoundTrip writes a compressible checkpoint through a
// deflate mount, checks the container shrank on the backend, that reads
// through the mount are bit-identical, and that Stats reports the ratio.
func TestDeflateMountRoundTrip(t *testing.T) {
	backend := memfs.New()
	fs, err := Mount(backend, Options{
		ChunkSize: 64 << 10, BufferPoolSize: 256 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := compressiblePayload(1<<20+12345, 2) // non-chunk-aligned tail
	writeThrough(t, fs, "ckpt.img", payload, 8000)

	if got := readThrough(t, fs, "ckpt.img"); !bytes.Equal(got, payload) {
		t.Fatalf("mount read differs (%d vs %d bytes)", len(got), len(payload))
	}
	info, err := fs.Stat("ckpt.img")
	if err != nil || info.Size != int64(len(payload)) {
		t.Fatalf("Stat = %+v, %v; want logical size %d", info, err, len(payload))
	}
	binfo, err := backend.Stat("ckpt.img")
	if err != nil {
		t.Fatal(err)
	}
	if binfo.Size >= int64(len(payload)) {
		t.Errorf("backend container %d bytes, not smaller than payload %d", binfo.Size, len(payload))
	}
	st := fs.Stats()
	if st.Frames == 0 || st.CompressionRatio() <= 1 {
		t.Errorf("stats: frames=%d ratio=%.2f, want frames>0 ratio>1", st.Frames, st.CompressionRatio())
	}
	if st.CodecBytesIn != int64(len(payload)) {
		t.Errorf("CodecBytesIn = %d, want %d", st.CodecBytesIn, len(payload))
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// The backend file must carry the frame magic.
	head, err := vfs.ReadFile(backend, "ckpt.img")
	if err != nil {
		t.Fatal(err)
	}
	if !codec.Sniff(head) {
		t.Error("backend file does not start with frame magic")
	}
}

// TestTransparentDecodeAcrossMounts writes a container under deflate and
// reads it back under a fresh default (raw) mount: codec-framed files
// decode transparently regardless of the reader's configured codec.
func TestTransparentDecodeAcrossMounts(t *testing.T) {
	backend := memfs.New()
	w, err := Mount(backend, Options{
		ChunkSize: 64 << 10, BufferPoolSize: 256 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := compressiblePayload(700<<10, 3)
	writeThrough(t, w, "ckpt.img", payload, 9000)
	if err := w.Unmount(); err != nil {
		t.Fatal(err)
	}

	r, err := Mount(backend, Options{ChunkSize: 64 << 10, BufferPoolSize: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unmount()
	info, err := r.Stat("ckpt.img")
	if err != nil || info.Size != int64(len(payload)) {
		t.Fatalf("closed-file Stat = %+v, %v; want logical size %d", info, err, len(payload))
	}
	if got := readThrough(t, r, "ckpt.img"); !bytes.Equal(got, payload) {
		t.Fatalf("cross-mount read differs (%d vs %d bytes)", len(got), len(payload))
	}
}

// TestIncompressibleFallback writes random data through a deflate mount:
// every frame must take the raw bailout, overhead stays bounded by one
// header per chunk, and the round trip stays bit-identical.
func TestIncompressibleFallback(t *testing.T) {
	backend := memfs.New()
	fs, err := Mount(backend, Options{
		ChunkSize: 64 << 10, BufferPoolSize: 256 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	payload := make([]byte, 512<<10)
	rand.New(rand.NewSource(4)).Read(payload)
	writeThrough(t, fs, "rand.img", payload, 8000)
	if got := readThrough(t, fs, "rand.img"); !bytes.Equal(got, payload) {
		t.Fatal("incompressible round trip differs")
	}
	st := fs.Stats()
	if st.RawFrames != st.Frames || st.Frames == 0 {
		t.Errorf("raw fallback: %d/%d frames raw, want all", st.RawFrames, st.Frames)
	}
	maxOut := st.CodecBytesIn + st.Frames*codec.HeaderSize
	if st.CodecBytesOut > maxOut {
		t.Errorf("bytes out %d exceeds in+headers %d", st.CodecBytesOut, maxOut)
	}
}

// TestFramedOverwriteAndHoles exercises the log-structured semantics:
// overwrites resolve last-writer-wins via frame sequence numbers, and
// holes read as zeros.
func TestFramedOverwriteAndHoles(t *testing.T) {
	backend := memfs.New()
	fs, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Open("sparse.img", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make([]byte, 200<<10)
	first := compressiblePayload(64<<10, 5)
	if _, err := f.WriteAt(first, 10<<10); err != nil {
		t.Fatal(err)
	}
	copy(want[10<<10:], first)
	// Overwrite part of the first extent (forces an early flush, new
	// frames with higher sequence numbers shadowing the old ones).
	second := compressiblePayload(32<<10, 6)
	if _, err := f.WriteAt(second, 20<<10); err != nil {
		t.Fatal(err)
	}
	copy(want[20<<10:], second)
	// Disjoint extent far past a hole.
	third := compressiblePayload(16<<10, 7)
	if _, err := f.WriteAt(third, 180<<10); err != nil {
		t.Fatal(err)
	}
	copy(want[180<<10:], third)
	want = want[:180<<10+len(third)]

	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("overwrite/hole semantics differ from logical file")
	}
	// Reading past EOF must report io.EOF with a short count.
	tail := make([]byte, 4096)
	n, err := f.ReadAt(tail, int64(len(want))-100)
	if n != 100 || err != io.EOF {
		t.Fatalf("read past EOF: n=%d err=%v, want 100, io.EOF", n, err)
	}
}

// TestFramedAppendAcrossRemount reopens an existing container and appends
// through a second mount session.
func TestFramedAppendAcrossRemount(t *testing.T) {
	backend := memfs.New()
	opts := Options{ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate()}
	a, err := Mount(backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	p1 := compressiblePayload(100<<10, 8)
	writeThrough(t, a, "grow.img", p1, 7000)
	if err := a.Unmount(); err != nil {
		t.Fatal(err)
	}

	b, err := Mount(backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Unmount()
	f, err := b.Open("grow.img", vfs.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	p2 := compressiblePayload(50<<10, 9)
	if _, err := f.WriteAt(p2, int64(len(p1))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := readThrough(t, b, "grow.img")
	if !bytes.Equal(got, append(append([]byte(nil), p1...), p2...)) {
		t.Fatal("append across remount differs")
	}
}

// TestFramedTruncate checks the container's truncate contract: reset to
// zero and no-op are supported, arbitrary cuts are rejected.
func TestFramedTruncate(t *testing.T) {
	backend := memfs.New()
	fs, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	payload := compressiblePayload(90<<10, 10)
	writeThrough(t, fs, "t.img", payload, 5000)
	f, err := fs.Open("t.img", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(int64(len(payload))); err != nil {
		t.Errorf("truncate to current size: %v", err)
	}
	if err := f.Truncate(10); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("mid truncate = %v, want ErrInvalid", err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if info, _ := f.Stat(); info.Size != 0 {
		t.Errorf("size after reset = %d", info.Size)
	}
	fresh := compressiblePayload(40<<10, 11)
	if _, err := f.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(fresh))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("rewrite after reset differs")
	}
}

// TestClosedContainerPathTruncate: FS.Truncate on a *closed* container
// must not cut the encoded stream mid-frame; it applies the same
// contract as open framed entries.
func TestClosedContainerPathTruncate(t *testing.T) {
	backend := memfs.New()
	fs, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	payload := compressiblePayload(90<<10, 20)
	writeThrough(t, fs, "closed.img", payload, 6000)
	// Entry is now closed (released from the open-file table).
	if err := fs.Truncate("closed.img", 1000); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("mid truncate of closed container = %v, want ErrInvalid", err)
	}
	if err := fs.Truncate("closed.img", int64(len(payload))); err != nil {
		t.Errorf("truncate to logical size: %v", err)
	}
	if got := readThrough(t, fs, "closed.img"); !bytes.Equal(got, payload) {
		t.Fatal("container damaged by rejected truncates")
	}
	if err := fs.Truncate("closed.img", 0); err != nil {
		t.Fatal(err)
	}
	if info, err := fs.Stat("closed.img"); err != nil || info.Size != 0 {
		t.Errorf("after reset: %+v, %v", info, err)
	}
}

// TestConcurrentFramedReaders hammers one container with parallel
// readers on random disjoint ranges: decodes must not serialize into
// corruption and every read must match the logical file.
func TestConcurrentFramedReaders(t *testing.T) {
	backend := memfs.New()
	fs, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	payload := compressiblePayload(512<<10, 40)
	writeThrough(t, fs, "par.img", payload, 8000)
	f, err := fs.Open("par.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 16<<10)
			for i := 0; i < 50; i++ {
				off := rng.Int63n(int64(len(payload)) - int64(len(buf)))
				if _, err := f.ReadAt(buf, off); err != nil {
					done <- err
					return
				}
				if !bytes.Equal(buf, payload[off:off+int64(len(buf))]) {
					done <- errors.New("parallel read differs")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornContainerPolicy: a container with a corrupt tail (crash
// mid-append) is salvaged at open — reads serve the longest intact frame
// prefix instead of failing (or leaking the encoded stream), writable
// opens append right after the prefix, RecoveryStats reflect the
// salvage, and a Trunc rewrite still works.
func TestTornContainerPolicy(t *testing.T) {
	backend := memfs.New()
	w, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := compressiblePayload(64<<10, 70)
	writeThrough(t, w, "torn.img", payload, 7000)
	if err := w.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append garbage that is not a valid frame header.
	whole, err := vfs.ReadFile(backend, "torn.img")
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), whole...), []byte("garbage tail!!")...)
	if err := vfs.WriteFile(backend, "torn.img", torn); err != nil {
		t.Fatal(err)
	}

	fs, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	// Reads serve the salvaged intact prefix — the whole original payload,
	// since only garbage was appended.
	if got := readThrough(t, fs, "torn.img"); !bytes.Equal(got, payload) {
		t.Fatal("read of torn container does not serve the intact frame prefix")
	}
	st := fs.Stats()
	if st.ContainersSalvaged == 0 || st.SalvageBytesTruncated != int64(len("garbage tail!!")) {
		t.Fatalf("RecoveryStats = %+v, want salvage of %d bytes", st, len("garbage tail!!"))
	}
	if st.ContainersRepaired != 0 {
		t.Fatalf("repaired %d containers without RepairOnOpen", st.ContainersRepaired)
	}
	// Writable open appends after the intact prefix; the extension is
	// readable and survives a remount (the junk was overwritten in place,
	// keeping the container a parseable prefix).
	wf, err := fs.Open("torn.img", vfs.WriteOnly)
	if err != nil {
		t.Fatalf("writable open of salvaged container: %v", err)
	}
	extra := compressiblePayload(8<<10, 72)
	if _, err := wf.WriteAt(extra, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), payload...), extra...)
	if got := readThrough(t, fs, "torn.img"); !bytes.Equal(got, want) {
		t.Fatal("append after salvage differs")
	}
	fs2, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readThrough(t, fs2, "torn.img"); !bytes.Equal(got, want) {
		t.Fatal("salvage + append does not survive remount")
	}
	if err := fs2.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Trunc rewrite still recovers the path outright.
	fresh := compressiblePayload(32<<10, 71)
	writeThrough(t, fs, "torn.img", fresh, 5000)
	if got := readThrough(t, fs, "torn.img"); !bytes.Equal(got, fresh) {
		t.Fatal("Trunc rewrite of torn container differs")
	}
}

// TestPadFrameTolerance: a container holding a zero-extent pad frame
// (stamped over a failed chunk write) must still scan, report the right
// logical size, and serve the surviving frames — the lost extent reads
// as zeros rather than poisoning the whole file.
func TestPadFrameTolerance(t *testing.T) {
	d1 := compressiblePayload(40<<10, 30)
	d3 := compressiblePayload(30<<10, 31)
	lost := 20 << 10 // extent of the failed write

	var container []byte
	container, _, err := codec.EncodeFrame(codec.Deflate(), 0, 0, d1, container)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, codec.HeaderSize+64)
	codec.PutHeader(pad, codec.Header{
		Codec: codec.RawID, Seq: 1, Off: int64(len(d1)), RawLen: 0, EncLen: 64,
	})
	container = append(container, pad...)
	container, _, err = codec.EncodeFrame(codec.Deflate(), 2, int64(len(d1)+lost), d3, container)
	if err != nil {
		t.Fatal(err)
	}
	backend := memfs.New()
	if err := vfs.WriteFile(backend, "c.img", container); err != nil {
		t.Fatal(err)
	}

	fs, err := Mount(backend, Options{ChunkSize: 32 << 10, BufferPoolSize: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	wantSize := int64(len(d1) + lost + len(d3))
	if info, err := fs.Stat("c.img"); err != nil || info.Size != wantSize {
		t.Fatalf("Stat = %+v, %v; want size %d", info, err, wantSize)
	}
	got := readThrough(t, fs, "c.img")
	want := make([]byte, wantSize)
	copy(want, d1)
	copy(want[len(d1)+lost:], d3)
	if !bytes.Equal(got, want) {
		t.Fatal("pad-frame container read differs (surviving frames + zero gap)")
	}
}

// TestRejectedTruncOpenLeavesNoTrace: a Trunc open of a file with active
// writers is rejected without truncating the backend (Trunc is deferred
// past the open-file-table race) and without leaking a table reference.
func TestRejectedTruncOpenLeavesNoTrace(t *testing.T) {
	backend := memfs.New()
	fs, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	// ReadWrite so the shared backend handle can serve the read below
	// (an entry opened WriteOnly cannot serve sharing readers — a
	// pre-existing property of the shared-handle design).
	a, err := fs.Open("busy.img", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	payload := compressiblePayload(50<<10, 60)
	if _, err := a.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("busy.img", vfs.WriteOnly|vfs.Trunc); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("Trunc open with active writers = %v, want ErrInvalid", err)
	}
	// The rejection must not have truncated the live container.
	got := make([]byte, len(payload))
	ra, err := fs.Open("busy.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	ra.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("rejected Trunc open damaged the live file")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	open := len(fs.files)
	fs.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d entries leaked in the open-file table after close", open)
	}
}

// TestMagicPrefixedPlainFileStaysReadable: a plain file whose content
// merely begins with the frame magic must not become unreadable — a
// failed header parse or index scan demotes it to passthrough.
func TestMagicPrefixedPlainFileStaysReadable(t *testing.T) {
	payload := append([]byte("CRFC"), compressiblePayload(64<<10, 50)...)
	backend := memfs.New()
	if err := vfs.WriteFile(backend, "fake.img", payload); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{ChunkSize: 32 << 10, BufferPoolSize: 128 << 10},
		{ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate()},
	} {
		fs, err := Mount(backend, opts)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := fs.Stat("fake.img"); err != nil || info.Size != int64(len(payload)) {
			t.Fatalf("Stat = %+v, %v; want plain size %d", info, err, len(payload))
		}
		if got := readThrough(t, fs, "fake.img"); !bytes.Equal(got, payload) {
			t.Fatal("magic-prefixed plain file read differs")
		}
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestContainerExtension: ftruncate-then-write preallocation works on
// framed files, persists across remount via a marker frame, and the
// extended hole reads as zeros.
func TestContainerExtension(t *testing.T) {
	backend := memfs.New()
	opts := Options{ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate()}
	fs, err := Mount(backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := compressiblePayload(50<<10, 80)
	writeThrough(t, fs, "pre.img", payload, 6000)
	const grown = 256 << 10
	f, err := fs.Open("pre.img", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(grown); err != nil {
		t.Fatalf("extending truncate: %v", err)
	}
	if info, _ := f.Stat(); info.Size != grown {
		t.Fatalf("size after extension = %d, want %d", info.Size, grown)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Remount: the marker frame must persist the extended size.
	r, err := Mount(backend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unmount()
	if info, err := r.Stat("pre.img"); err != nil || info.Size != grown {
		t.Fatalf("remount Stat = %+v, %v; want size %d", info, err, grown)
	}
	got := readThrough(t, r, "pre.img")
	want := make([]byte, grown)
	copy(want, payload)
	if !bytes.Equal(got, want) {
		t.Fatal("extended container read differs (payload + zero hole)")
	}
	// Closed-file extension through FS.Truncate routes the same way.
	if err := r.Truncate("pre.img", grown+4096); err != nil {
		t.Fatalf("closed-file extension: %v", err)
	}
	if info, err := r.Stat("pre.img"); err != nil || info.Size != grown+4096 {
		t.Fatalf("after closed-file extension: %+v, %v", info, err)
	}
}

// TestRawMountResetDemotesToPlain: truncate(0)+rewrite of a container
// under a raw mount produces a plain passthrough file, matching what a
// Trunc open on the same mount yields.
func TestRawMountResetDemotesToPlain(t *testing.T) {
	backend := memfs.New()
	w, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	writeThrough(t, w, "c.img", compressiblePayload(60<<10, 81), 7000)
	if err := w.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(backend, Options{ChunkSize: 32 << 10, BufferPoolSize: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Open("c.img", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	fresh := compressiblePayload(20<<10, 82)
	if _, err := f.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := vfs.ReadFile(backend, "c.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, fresh) {
		t.Fatal("raw-mount reset+rewrite is not plain passthrough on the backend")
	}
}

// TestPlainResetBecomesContainer: truncating an existing plain file to
// zero under a codec mount starts a fresh container, matching what a
// Trunc open of the same path would produce.
func TestPlainResetBecomesContainer(t *testing.T) {
	backend := memfs.New()
	old := compressiblePayload(64<<10, 51)
	if err := vfs.WriteFile(backend, "legacy.img", old); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Open("legacy.img", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	fresh := compressiblePayload(96<<10, 52)
	if _, err := f.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	head, err := vfs.ReadFile(backend, "legacy.img")
	if err != nil {
		t.Fatal(err)
	}
	if !codec.Sniff(head) {
		t.Fatal("rewrite after reset did not become a frame container")
	}
	if got := readThrough(t, fs, "legacy.img"); !bytes.Equal(got, fresh) {
		t.Fatal("reset-and-rewrite read differs")
	}
	if st := fs.Stats(); st.Frames == 0 {
		t.Error("no frames recorded for reset-and-rewrite")
	}
}

// TestPlainFileStaysPassthroughUnderCodecMount: an existing non-framed
// file opened under a deflate mount keeps passthrough semantics — the
// codec never frames into the middle of a plain file.
func TestPlainFileStaysPassthroughUnderCodecMount(t *testing.T) {
	backend := memfs.New()
	old := compressiblePayload(80<<10, 12)
	if err := vfs.WriteFile(backend, "legacy.img", old); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(backend, Options{
		ChunkSize: 32 << 10, BufferPoolSize: 128 << 10, Codec: codec.Deflate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Open("legacy.img", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	add := compressiblePayload(16<<10, 13)
	if _, err := f.WriteAt(add, int64(len(old))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(backend, "legacy.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), old...), add...)) {
		t.Fatal("plain file was not extended verbatim on the backend")
	}
}
