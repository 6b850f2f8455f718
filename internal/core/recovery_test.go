package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"crfs/internal/codec"
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

func TestRepairOnOpenTruncatesBackend(t *testing.T) {
	back, payload := tornBackend(t, "ck.img", 40<<10, "torn tail garbage bytes")
	before, _ := back.Stat("ck.img")
	fs := mount(t, back, Options{
		ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate(), RepairOnOpen: true,
	})
	if got := readThrough(t, fs, "ck.img"); !bytes.Equal(got, payload) {
		t.Fatal("repaired read differs")
	}
	st := fs.Stats()
	if st.ContainersSalvaged != 1 || st.ContainersRepaired != 1 {
		t.Fatalf("recovery stats %+v, want 1 salvaged + 1 repaired", st)
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
	for _, name := range []string{"raw.crfc", "deflate.crfc", "deflate-torn.crfc"} {
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
