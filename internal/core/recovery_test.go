package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// tornBackend returns a memfs holding name as a deflate container with
// the given payload plus tail garbage bytes, and the payload written.
func tornBackend(t *testing.T, name string, size int, garbage string) (*memfs.FS, []byte) {
	t.Helper()
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate()})
	payload := compressiblePayload(size, 90)
	writeThrough(t, fs, name, payload, 4000)
	whole, err := vfs.ReadFile(back, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(back, name, append(bytes.Clone(whole), garbage...)); err != nil {
		t.Fatal(err)
	}
	return back, payload
}

func TestSalvageOnOpenServesIntactPrefix(t *testing.T) {
	back, payload := tornBackend(t, "ck.img", 48<<10, "power cut here")
	for _, cdc := range []codec.Codec{codec.Raw(), codec.Deflate()} {
		fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: cdc})
		if got := readThrough(t, fs, "ck.img"); !bytes.Equal(got, payload) {
			t.Fatalf("codec %s: salvaged read differs", cdc.Name())
		}
		st := fs.Stats()
		if st.ContainersScanned == 0 || st.ContainersSalvaged != 1 {
			t.Fatalf("codec %s: recovery stats %+v", cdc.Name(), st)
		}
		if st.SalvageBytesTruncated != int64(len("power cut here")) {
			t.Fatalf("codec %s: truncated %d bytes, want %d",
				cdc.Name(), st.SalvageBytesTruncated, len("power cut here"))
		}
		// Stat of the closed file reports the salvaged logical size too.
		if info, err := fs.Stat("ck.img"); err != nil || info.Size != int64(len(payload)) {
			t.Fatalf("codec %s: Stat = %+v, %v; want logical %d", cdc.Name(), info, err, len(payload))
		}
	}
}

// TestWritableOpenCutsTornContainer: a read-only open serves a torn
// container's intact prefix and leaves the backend alone; the first open
// that can append truncates the backend to that prefix, once.
func TestWritableOpenCutsTornContainer(t *testing.T) {
	back, payload := tornBackend(t, "ck.img", 40<<10, "torn tail garbage bytes")
	before, _ := back.Stat("ck.img")
	fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate()})
	if got := readThrough(t, fs, "ck.img"); !bytes.Equal(got, payload) {
		t.Fatal("salvaged read differs")
	}
	if info, _ := back.Stat("ck.img"); info.Size != before.Size || fs.Stats().ContainersRepaired != 0 {
		t.Fatalf("read-only open changed the backend: size %d -> %d, stats %+v", before.Size, info.Size, fs.Stats())
	}
	f, err := fs.Open("ck.img", vfs.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.ContainersSalvaged != 2 || st.ContainersRepaired != 1 {
		t.Fatalf("recovery stats %+v, want 2 salvaged + 1 repaired", st)
	}
	after, err := back.Stat("ck.img")
	if err != nil {
		t.Fatal(err)
	}
	wantSize := before.Size - int64(len("torn tail garbage bytes"))
	if after.Size != wantSize {
		t.Fatalf("backend size after repair = %d, want %d", after.Size, wantSize)
	}
	// A fresh mount finds a clean container: no second salvage.
	fs2 := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate()})
	if got := readThrough(t, fs2, "ck.img"); !bytes.Equal(got, payload) {
		t.Fatal("post-repair read differs")
	}
	if st := fs2.Stats(); st.ContainersSalvaged != 0 {
		t.Fatalf("repaired container salvaged again: %+v", st)
	}
}

// holeContainer is the shape out-of-order appends leave after a crash:
// frame 0 over [0, chunk), then a zeroed hole the size of a raw frame of
// chunk bytes, where frame 1 was reserved but never written, then frames
// with seqs 2 .. 1+tail over the following chunks. It returns the
// container and frame 0's payload.
func holeContainer(t *testing.T, chunk, tail int) ([]byte, []byte) {
	t.Helper()
	p0 := compressiblePayload(chunk, 60)
	box, _, err := codec.EncodeFrame(codec.Deflate(), 0, 0, p0, nil)
	if err != nil {
		t.Fatal(err)
	}
	box = append(box, make([]byte, codec.HeaderSize+chunk)...)
	for seq := 2; seq < 2+tail; seq++ {
		if box, _, err = codec.EncodeFrame(codec.Deflate(), uint64(seq), int64(seq*chunk), compressiblePayload(chunk, int64(60+seq)), box); err != nil {
			t.Fatal(err)
		}
	}
	return box, p0
}

func incompressible(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkRemount remounts back and wants name to read as want, chunk by
// chunk.
func checkRemount(t *testing.T, back vfs.FS, opts Options, name string, want []byte) {
	t.Helper()
	got := readThrough(t, mount(t, back, opts), name)
	if len(got) != len(want) {
		t.Fatalf("remount size = %d, want %d", len(got), len(want))
	}
	for off := 0; off < len(want); off += int(opts.ChunkSize) {
		end := min(off+int(opts.ChunkSize), len(want))
		if !bytes.Equal(got[off:end], want[off:end]) {
			t.Fatalf("remount bytes [%d, %d) differ from what was acknowledged", off, end)
		}
	}
}

// TestAppendAfterSalvageKeepsAckedBytes: an acknowledged write that fills
// the hole of an out-of-order tear becomes frame seq 1, exactly the size
// of the hole. Were the old frames 2 and 3 left past it, a remount would
// parse them again: the file would grow past what was acknowledged, and
// frame 2 (seq 2) would win over the write.
func TestAppendAfterSalvageKeepsAckedBytes(t *testing.T) {
	const chunk = 16 << 10
	for _, cdc := range []codec.Codec{codec.Deflate(), codec.Raw()} {
		t.Run(cdc.Name(), func(t *testing.T) {
			box, p0 := holeContainer(t, chunk, 2)
			back := memfs.New()
			if err := vfs.WriteFile(back, "ck.img", box); err != nil {
				t.Fatal(err)
			}
			opts := Options{ChunkSize: chunk, BufferPoolSize: 64 << 10, Codec: cdc}
			fs := mount(t, back, opts)
			if info, err := fs.Stat("ck.img"); err != nil || info.Size != chunk {
				t.Fatalf("Stat = %+v, %v; want the salvaged %d", info, err, chunk)
			}
			acked := incompressible(chunk, 58)
			f, err := fs.Open("ck.img", vfs.ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(acked, 2*chunk); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			want := append(append(bytes.Clone(p0), make([]byte, chunk)...), acked...)
			checkRemount(t, back, opts, "ck.img", want)
		})
	}
}

// statGateFS holds the next backend Stat after arm — the stable-size
// check that follows a salvage verdict — until gate is closed.
type statGateFS struct {
	vfs.FS
	armed      atomic.Bool
	held, gate chan struct{}
}

func (g *statGateFS) arm() {
	g.held, g.gate = make(chan struct{}), make(chan struct{})
	g.armed.Store(true)
}

func (g *statGateFS) Stat(name string) (vfs.FileInfo, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.held)
		<-g.gate
	}
	return g.FS.Stat(name)
}

// TestTornContainerCutOnceUnderRacingWritableOpens: two writable opens
// both reach a salvage verdict on the same torn container. The first to
// win the table cuts the tail and appends a synced frame that brings the
// backend back to its torn size, so the second's verdict stands; it
// shares the live entry and must not cut again.
func TestTornContainerCutOnceUnderRacingWritableOpens(t *testing.T) {
	const chunk = 16 << 10
	box, p0 := holeContainer(t, chunk, 0)
	back := memfs.New()
	if err := vfs.WriteFile(back, "ck.img", box); err != nil {
		t.Fatal(err)
	}
	gated := &statGateFS{FS: back}
	opts := Options{ChunkSize: chunk, BufferPoolSize: 64 << 10, Codec: codec.Deflate()}
	fs := mount(t, gated, opts)

	gated.arm()
	type opened struct {
		f   vfs.File
		err error
	}
	second := make(chan opened, 1)
	go func() {
		f, err := fs.Open("ck.img", vfs.ReadWrite)
		second <- opened{f, err}
	}()
	<-gated.held
	release := sync.OnceFunc(func() { close(gated.gate) })
	defer release()
	acked1, acked2 := incompressible(chunk, 1), incompressible(chunk, 2)
	w1, err := fs.Open("ck.img", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w1.WriteAt(acked1, chunk); err != nil {
		t.Fatal(err)
	}
	if err := w1.Sync(); err != nil {
		t.Fatal(err)
	}
	if info, _ := back.Stat("ck.img"); info.Size != int64(len(box)) {
		t.Fatalf("backend size %d after the first append, want the torn size %d", info.Size, len(box))
	}
	release()
	o := <-second
	if o.err != nil {
		t.Fatal(o.err)
	}
	if _, err := o.f.WriteAt(acked2, 2*chunk); err != nil {
		t.Fatal(err)
	}
	for _, f := range []vfs.File{o.f, w1} {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if st := fs.Stats(); st.ContainersRepaired != 1 {
		t.Fatalf("ContainersRepaired = %d, want 1", st.ContainersRepaired)
	}
	checkRemount(t, back, opts, "ck.img", append(append(bytes.Clone(p0), acked1...), acked2...))
}

// TestSalvageNeverResurrectsOverwrites: with an overwrite history in the
// container, a tear after the newer frame keeps serving the new data,
// and a tear that drops the newer frame falls back to the old data —
// never a mix, and never old-over-new.
func TestSalvageNeverResurrectsOverwrites(t *testing.T) {
	old := bytes.Repeat([]byte("OLD!"), 1024)
	new_ := bytes.Repeat([]byte("new?"), 1024)
	var box []byte
	var err error
	box, _, err = codec.EncodeFrame(codec.Deflate(), 0, 0, old, box)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(box)) // tear point that drops the overwrite
	box, _, err = codec.EncodeFrame(codec.Deflate(), 1, 0, new_, box)
	if err != nil {
		t.Fatal(err)
	}

	// Tear after the overwrite: new data survives.
	back := memfs.New()
	if err := vfs.WriteFile(back, "f", append(bytes.Clone(box), "junk"...)); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10})
	if got := readThrough(t, fs, "f"); !bytes.Equal(got, new_) {
		t.Fatal("tear past the overwrite must keep the newer frame")
	}

	// Tear inside the overwrite frame: the whole frame drops, the old
	// (pre-overwrite, never-acknowledged-as-replaced) data returns.
	back2 := memfs.New()
	if err := vfs.WriteFile(back2, "f", box[:cut+20]); err != nil {
		t.Fatal(err)
	}
	fs2 := mount(t, back2, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10})
	if got := readThrough(t, fs2, "f"); !bytes.Equal(got, old) {
		t.Fatal("tear inside the overwrite must fall back to the old frame whole")
	}
}

// TestSalvageTornFirstFrame: a brand-new container torn inside its very
// first frame (parseable header, short payload) salvages to an empty
// file — the unsynced tail shrank to nothing — rather than leaking the
// encoded bytes as plain content.
func TestSalvageTornFirstFrame(t *testing.T) {
	frame, _, err := codec.EncodeFrame(codec.Deflate(), 0, 0, compressiblePayload(8<<10, 91), nil)
	if err != nil {
		t.Fatal(err)
	}
	back := memfs.New()
	if err := vfs.WriteFile(back, "f", frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate()})
	f, err := fs.Open("f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil || info.Size != 0 {
		t.Fatalf("Stat = %+v, %v; want empty salvaged container", info, err)
	}
	if n, err := f.ReadAt(make([]byte, 16), 0); n != 0 || err != io.EOF {
		t.Fatalf("read = (%d, %v), want clean EOF", n, err)
	}
	if st := fs.Stats(); st.ContainersSalvaged != 1 {
		t.Fatalf("recovery stats %+v", st)
	}
}

// TestGoldenFixturesThroughMount: the checked-in golden containers must
// read byte-identically through a real mount — the cross-layer half of
// the format-compatibility ratchet.
func TestGoldenFixturesThroughMount(t *testing.T) {
	dir := filepath.Join("..", "codec", "testdata", "golden")
	want, err := os.ReadFile(filepath.Join(dir, "content.want"))
	if err != nil {
		t.Fatalf("golden fixtures missing: %v", err)
	}
	for _, name := range []string{"raw-v2.crfc", "deflate-v2.crfc", "deflate-v2-torn.crfc"} {
		box, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		back := memfs.New()
		if err := vfs.WriteFile(back, "golden.img", box); err != nil {
			t.Fatal(err)
		}
		fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10})
		if got := readThrough(t, fs, "golden.img"); !bytes.Equal(got, want) {
			t.Fatalf("%s: mount read differs from golden content", name)
		}
	}
}

// TestV1ContainersRefused: each retired v1 fixture is refused with
// codec.ErrFrameVersion by a raw and a deflate mount's open, never
// demoted to plain (which would serve its encoded bytes) nor salvaged;
// scrub with repair reports it and compaction leaves it, both without
// changing a byte.
func TestV1ContainersRefused(t *testing.T) {
	dir := filepath.Join("..", "codec", "testdata", "v1")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 5 {
		t.Fatalf("%s: %d containers, want 5 (%v)", dir, len(entries), err)
	}
	for _, e := range entries {
		box, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		back := memfs.New()
		if err := vfs.WriteFile(back, "old.img", box); err != nil {
			t.Fatal(err)
		}
		for _, cdc := range []codec.Codec{codec.Raw(), codec.Deflate()} {
			fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: cdc})
			for _, flag := range []vfs.OpenFlag{vfs.ReadOnly, vfs.WriteOnly} {
				if f, err := fs.Open("old.img", flag); !errors.Is(err, codec.ErrFrameVersion) || errors.Is(err, codec.ErrCorrupt) {
					if f != nil {
						f.Close()
					}
					t.Fatalf("%s: %s mount, open(%v): %v; want ErrFrameVersion", e.Name(), cdc.Name(), flag, err)
				}
			}
			if st := fs.Stats(); st.ContainersSalvaged != 0 || st.ChecksumVerified != 0 {
				t.Fatalf("%s: %s mount read the container: %+v", e.Name(), cdc.Name(), st)
			}
		}
		scrub := compact.ScrubFile(back, "old.img", int64(len(box)), true, nil)
		comp := compact.CompactPath(back, "old.img", int64(len(box)))
		for what, msg := range map[string]string{"scrub -repair": scrub.Err, "compaction": comp.Err} {
			if !strings.Contains(msg, codec.ErrFrameVersion.Error()) {
				t.Fatalf("%s: %s error %q, want ErrFrameVersion", e.Name(), what, msg)
			}
		}
		if scrub.Repaired || comp.Compacted {
			t.Fatalf("%s: scrub %+v, compaction %+v rewrote a v1 container", e.Name(), scrub, comp)
		}
		if got, err := vfs.ReadFile(back, "old.img"); err != nil || !bytes.Equal(got, box) {
			t.Fatalf("%s: bytes changed (%v)", e.Name(), err)
		}
	}
}

// flakyFS fails every ReadAt at or past offset 32 — behind a container's
// first frame header — while fail is set.
type flakyFS struct {
	vfs.FS
	fail atomic.Bool
}

var errFlaky = errors.New("flaky read")

func (f *flakyFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	file, err := f.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return flakyFile{file, &f.fail}, nil
}

type flakyFile struct {
	vfs.File
	fail *atomic.Bool
}

func (f flakyFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fail.Load() && off >= codec.HeaderSize {
		return 0, errFlaky
	}
	return f.File.ReadAt(p, off)
}

// TestOpenRefusesUnreadableContainer: a backend read failure while open
// scans a container fails the open with that error — demoting the file to
// plain would serve its encoded bytes as its content — and an open after
// the fault clears reads the content.
func TestOpenRefusesUnreadableContainer(t *testing.T) {
	content := compressiblePayload(200<<10, 11)
	var box []byte
	for i := 0; i < 4; i++ {
		var err error
		part := content[i*50<<10 : (i+1)*50<<10]
		if box, _, err = codec.EncodeFrame(codec.Deflate(), uint64(i), int64(i*50<<10), part, box); err != nil {
			t.Fatal(err)
		}
	}
	for _, cdc := range []codec.Codec{codec.Raw(), codec.Deflate()} {
		back := &flakyFS{FS: memfs.New()}
		if err := vfs.WriteFile(back, "ck.img", box); err != nil {
			t.Fatal(err)
		}
		fs := mount(t, back, Options{ChunkSize: 64 << 10, BufferPoolSize: 256 << 10, Codec: cdc})
		back.fail.Store(true)
		if f, err := fs.Open("ck.img", vfs.ReadOnly); !errors.Is(err, errFlaky) {
			if f != nil {
				f.Close()
			}
			t.Fatalf("%s mount: open over a failing backend: %v, want the backend's error", cdc.Name(), err)
		}
		back.fail.Store(false)
		if got := readThrough(t, fs, "ck.img"); !bytes.Equal(got, content) {
			t.Fatalf("%s mount: read %d bytes after the fault cleared, want the %d-byte content", cdc.Name(), len(got), len(content))
		}
	}
}

// TestStatReportsProbeError: Stat of a closed file fails with the error
// its Open fails with — a v1 container's ErrFrameVersion, a backend read
// error behind the first frame header — instead of reporting the
// encoded size; a good container stats at its decoded size.
func TestStatReportsProbeError(t *testing.T) {
	dir := filepath.Join("..", "codec", "testdata", "v1")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 5 {
		t.Fatalf("%s: %d containers, want 5 (%v)", dir, len(entries), err)
	}
	content := compressiblePayload(200<<10, 12)
	var good []byte
	for i := 0; i < 4; i++ {
		part := content[i*50<<10 : (i+1)*50<<10]
		if good, _, err = codec.EncodeFrame(codec.Deflate(), uint64(i), int64(i*50<<10), part, good); err != nil {
			t.Fatal(err)
		}
	}
	for _, cdc := range []codec.Codec{codec.Raw(), codec.Deflate()} {
		back := &flakyFS{FS: memfs.New()}
		for _, e := range entries {
			box, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(back, e.Name(), box); err != nil {
				t.Fatal(err)
			}
		}
		if err := vfs.WriteFile(back, "ck.img", good); err != nil {
			t.Fatal(err)
		}
		fs := mount(t, back, Options{ChunkSize: 64 << 10, BufferPoolSize: 256 << 10, Codec: cdc})
		for _, e := range entries {
			if info, err := fs.Stat(e.Name()); !errors.Is(err, codec.ErrFrameVersion) {
				t.Errorf("%s mount: Stat(%s) = %d bytes, %v; want ErrFrameVersion", cdc.Name(), e.Name(), info.Size, err)
			}
		}
		back.fail.Store(true)
		if info, err := fs.Stat("ck.img"); !errors.Is(err, errFlaky) {
			t.Errorf("%s mount: Stat over a failing backend = %d bytes, %v; want the backend's error", cdc.Name(), info.Size, err)
		}
		back.fail.Store(false)
		if info, err := fs.Stat("ck.img"); err != nil || info.Size != int64(len(content)) {
			t.Errorf("%s mount: Stat of a good container = %d bytes, %v; want %d", cdc.Name(), info.Size, err, len(content))
		}
	}
}

// TestErrorPropagation is the table-driven error-propagation contract:
// an injected backend write failure — full or torn — must surface
// exactly once on Sync/Close (not swallowed, not duplicated), for raw
// and deflate mounts, with the failed chunk counted in Stats.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("backend exploded")
	cases := []struct {
		name       string
		cdc        codec.Codec
		backend    func() *memfs.FS
		wantErr    error
		wantFailed int64 // 150 bytes = 3 chunks; WithWriteError fails all, a tear fails one
	}{
		{"raw/full-failure", codec.Raw(),
			func() *memfs.FS { return memfs.New(memfs.WithWriteError(0, boom)) }, boom, 3},
		{"deflate/full-failure", codec.Deflate(),
			func() *memfs.FS { return memfs.New(memfs.WithWriteError(0, boom)) }, boom, 3},
		{"raw/torn-write", codec.Raw(),
			func() *memfs.FS { return memfs.New(memfs.WithTornWrite(0, 0.5)) }, memfs.ErrTornWrite, 1},
		{"deflate/torn-write", codec.Deflate(),
			func() *memfs.FS { return memfs.New(memfs.WithTornWrite(0, 0.5)) }, memfs.ErrTornWrite, 1},
	}
	for _, tc := range cases {
		for _, surface := range []string{"sync", "close"} {
			t.Run(tc.name+"/"+surface, func(t *testing.T) {
				fs := mount(t, tc.backend(), Options{ChunkSize: 64, BufferPoolSize: 256, Codec: tc.cdc})
				f, err := fs.Open("f", vfs.WriteOnly|vfs.Create)
				if err != nil {
					t.Fatal(err)
				}
				// Two chunks' worth so an IO worker performs (and fails) a
				// backend write even before the tail flush.
				if _, err := f.WriteAt(compressiblePayload(150, 7), 0); err != nil {
					t.Fatal(err)
				}
				switch surface {
				case "sync":
					if err := f.Sync(); !errors.Is(err, tc.wantErr) {
						t.Fatalf("Sync = %v, want %v", err, tc.wantErr)
					}
					// Exactly once: the next Sync and the Close are clean.
					if err := f.Sync(); err != nil {
						t.Fatalf("second Sync = %v, want nil (already reported)", err)
					}
					if err := f.Close(); err != nil {
						t.Fatalf("Close after reported Sync = %v, want nil", err)
					}
				case "close":
					if err := f.Close(); !errors.Is(err, tc.wantErr) {
						t.Fatalf("Close = %v, want %v", err, tc.wantErr)
					}
				}
				if got := fs.Stats().FailedChunks; got != tc.wantFailed {
					t.Fatalf("FailedChunks = %d, want %d", got, tc.wantFailed)
				}
			})
		}
	}
}

// TestErrorPropagationAcrossHandles: with two handles on one entry, the
// failure is reported on whichever Sync/Close drains first and exactly
// once overall.
func TestErrorPropagationAcrossHandles(t *testing.T) {
	boom := errors.New("boom")
	fs := mount(t, memfs.New(memfs.WithWriteError(0, boom)),
		Options{ChunkSize: 64, BufferPoolSize: 256})
	a, err := fs.Open("f", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.Open("f", vfs.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); !errors.Is(err, boom) {
		t.Fatalf("first surface = %v, want boom", err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("second handle's Sync = %v, want nil (already reported)", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close a = %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close b = %v", err)
	}
	// 100 bytes over 64-byte chunks = 2 chunk writes, both failed.
	if got := fs.Stats().FailedChunks; got != 2 {
		t.Fatalf("FailedChunks = %d, want 2", got)
	}
}

// TestWriteFailStopAfterError: writes keep refusing after a backend
// failure (fail-stop), independent of the one-shot Sync/Close report.
func TestWriteFailStopAfterError(t *testing.T) {
	boom := errors.New("boom")
	fs := mount(t, memfs.New(memfs.WithWriteError(0, boom)),
		Options{ChunkSize: 64, BufferPoolSize: 256})
	f, err := fs.Open("f", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync = %v, want boom", err)
	}
	if _, err := f.WriteAt([]byte("x"), 500); !errors.Is(err, boom) {
		t.Fatalf("write after failure = %v, want fail-stop", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close = %v, want nil (already reported)", err)
	}
}
