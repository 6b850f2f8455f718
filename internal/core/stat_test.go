package core

import (
	"bytes"
	"testing"
	"time"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// These tests cover Stat of a closed file (probeClosed / probeContainer)
// against files mutated behind the mount's back with a direct backend
// write: every Stat probes afresh, so each must report the container that
// is there now. Some names date from a probe cache Stat no longer has.

// rawContainer builds a one-frame raw container whose logical size is
// off+len(payload); its encoded size is HeaderSize+len(payload)
// regardless of off, which lets tests swap containers of differing
// logical size without changing the backend size.
func rawContainer(t *testing.T, off int64, payload []byte) []byte {
	t.Helper()
	frame, _, err := codec.EncodeFrame(codec.Raw(), 0, off, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// backendWrite replaces name's contents directly in the backend.
func backendWrite(t *testing.T, back vfs.FS, name string, data []byte) {
	t.Helper()
	if err := vfs.WriteFile(back, name, data); err != nil {
		t.Fatal(err)
	}
}

func statSize(t *testing.T, fs *FS, name string) int64 {
	t.Helper()
	info, err := fs.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size
}

func TestStatCacheInvalidatedBySizeChange(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2})
	backendWrite(t, back, "ckpt", rawContainer(t, 0, make([]byte, 500)))
	if got := statSize(t, fs, "ckpt"); got != 500 {
		t.Fatalf("container logical size = %d, want 500", got)
	}
	// Behind-the-back growth: append a second frame extending the
	// container. Stat must report the new logical size.
	frame2, _, err := codec.EncodeFrame(codec.Raw(), 1, 500, make([]byte, 200), nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := back.Open("ckpt", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(frame2, 500+codec.HeaderSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := statSize(t, fs, "ckpt"); got != 700 {
		t.Fatalf("after behind-the-back append: size = %d, want 700", got)
	}
	// Garbage growth now salvages instead of demoting: Stat keeps
	// reporting the intact prefix's logical size.
	g, err := back.Open("ckpt", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("trailing garbage"), 700+2*codec.HeaderSize); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if got := statSize(t, fs, "ckpt"); got != 700 {
		t.Fatalf("after garbage append: size = %d, want salvaged 700", got)
	}
}

func TestStatCacheInvalidatedByMtimeChange(t *testing.T) {
	// A manual clock makes the mtime deterministic: the rewrite keeps the
	// encoded size identical and moves only the mtime.
	now := time.Unix(1000, 0)
	back := memfs.New(memfs.WithClock(func() time.Time { return now }))
	fs := mount(t, back, Options{ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2})
	backendWrite(t, back, "ckpt", rawContainer(t, 0, make([]byte, 300)))
	if got := statSize(t, fs, "ckpt"); got != 300 {
		t.Fatalf("container logical size = %d, want 300", got)
	}
	// Same encoded size, different logical size, newer mtime.
	now = now.Add(time.Second)
	backendWrite(t, back, "ckpt", rawContainer(t, 700, make([]byte, 300)))
	if got := statSize(t, fs, "ckpt"); got != 1000 {
		t.Fatalf("after same-size rewrite with new mtime: size = %d, want 1000", got)
	}
}

func TestStatFrozenClockSeesRewrite(t *testing.T) {
	// A frozen backend clock and an identical encoded size leave the
	// backend's own Stat unchanged across the rewrite; only the bytes say
	// the logical size moved.
	now := time.Unix(2000, 0)
	back := memfs.New(memfs.WithClock(func() time.Time { return now }))
	fs := mount(t, back, Options{ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2})
	backendWrite(t, back, "ckpt", rawContainer(t, 0, make([]byte, 300)))
	if got := statSize(t, fs, "ckpt"); got != 300 {
		t.Fatalf("container logical size = %d, want 300", got)
	}
	backendWrite(t, back, "ckpt", rawContainer(t, 700, make([]byte, 300)))
	if got := statSize(t, fs, "ckpt"); got != 1000 {
		t.Fatalf("after same-size rewrite on a frozen clock: size = %d, want 1000", got)
	}
}

// TestStatTornContainerDoesNotRepair: Stat of a torn container reports the
// intact prefix's logical size and leaves the backend file alone even on a
// RepairOnOpen mount — only the Open path repairs.
func TestStatTornContainerDoesNotRepair(t *testing.T) {
	back, payload := tornBackend(t, "ck.img", 40<<10, "torn tail garbage bytes")
	before, err := vfs.ReadFile(back, "ck.img")
	if err != nil {
		t.Fatal(err)
	}
	fs := mount(t, back, Options{
		ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate(), RepairOnOpen: true,
	})
	if got := statSize(t, fs, "ck.img"); got != int64(len(payload)) {
		t.Fatalf("Stat of torn container = %d, want intact prefix %d", got, len(payload))
	}
	after, err := vfs.ReadFile(back, "ck.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("Stat changed the backend file: %d bytes before, %d after", len(before), len(after))
	}
	if st := fs.Stats(); st.ContainersRepaired != 0 {
		t.Fatalf("Stat repaired a container: %+v", st)
	}
}

// mutatingBackend fires a one-shot mutation the moment the probe opens
// its target — reproducing a direct backend write landing between Stat's
// backend stat and its scan.
type mutatingBackend struct {
	vfs.FS
	t      *testing.T
	target string
	armed  bool
	mutate func()
}

func (m *mutatingBackend) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	if m.armed && vfs.Clean(name) == m.target {
		m.armed = false
		m.mutate()
	}
	return m.FS.Open(name, flag)
}

func TestStatProbeRacingBackendWrite(t *testing.T) {
	// The file is plain when Stat snapshots it, and becomes a (larger)
	// container before the probe opens it. The scan is bounded by the
	// size the opened handle reports, not the stale snapshot, so Stat
	// reports the fresh container's logical size.
	back := memfs.New()
	mb := &mutatingBackend{FS: back, t: t, target: "ckpt"}
	fs := mount(t, mb, Options{ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2})
	backendWrite(t, back, "ckpt", make([]byte, 100))
	mb.mutate = func() { backendWrite(t, back, "ckpt", rawContainer(t, 900, make([]byte, 100))) }
	mb.armed = true
	if got := statSize(t, fs, "ckpt"); got != 1000 {
		t.Fatalf("Stat racing a backend write = %d, want the fresh container's 1000", got)
	}
	if got := statSize(t, fs, "ckpt"); got != 1000 {
		t.Fatalf("Stat after the race = %d, want 1000", got)
	}
}

// TestOpenSeesBehindTheBackContainer pins the open path's behavior for
// the same mutation: a container swapped in behind the mount's back is
// indexed fresh on every open of a closed file.
func TestOpenSeesBehindTheBackContainer(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2})
	payload := []byte("the second container's payload")
	backendWrite(t, back, "ckpt", rawContainer(t, 0, make([]byte, 64)))
	if got := statSize(t, fs, "ckpt"); got != 64 {
		t.Fatalf("logical size = %d, want 64", got)
	}
	backendWrite(t, back, "ckpt", rawContainer(t, 0, payload))
	f, err := fs.Open("ckpt", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("open after behind-the-back swap read %q", got)
	}
}

// TestHandleStatDescribesTheOpenFile: a handle's Stat, like fstat,
// describes the file it reads, also once another file is renamed over its
// path behind the mount's back — the state a GET that opens a name while
// a Put commits over it is left in. Stat by path sized a read of 3 bytes
// at 9.
func TestHandleStatDescribesTheOpenFile(t *testing.T) {
	back := memfs.New()
	backendWrite(t, back, "ckpt", []byte("old"))
	backendWrite(t, back, "next", []byte("new bytes"))
	fs, err := Mount(back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Open("ckpt", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := back.Rename("next", "ckpt"); err != nil {
		t.Fatal(err)
	}
	if info, err := f.Stat(); err != nil || info.Size != 3 || info.Name != "ckpt" {
		t.Fatalf("Stat of the open handle = %+v, %v; want the 3-byte file it reads", info, err)
	}
}
