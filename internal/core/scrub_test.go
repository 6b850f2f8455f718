package core

import (
	"bytes"
	"math/rand"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// rewriteWorkload writes a file and overwrites half of it a few times —
// the in-place incremental checkpoint pattern that amplifies space.
func rewriteWorkload(t *testing.T, fs *FS, name string, size, chunk int64, passes int) []byte {
	t.Helper()
	f, err := fs.Open(name, vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	content := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, chunk)
	write := func(off int64) {
		rng.Read(buf[:chunk/2])
		copy(buf[chunk/2:], bytes.Repeat([]byte{byte(off)}, int(chunk/2)))
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		copy(content[off:], buf)
	}
	for off := int64(0); off < size; off += chunk {
		write(off)
	}
	for p := 0; p < passes; p++ {
		for off := int64(0); off < size; off += 2 * chunk {
			write(off)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return content
}

// TestScrubOnline runs the scrub engine over a live mount's backend:
// the containers the mount wrote verify clean, and corruption planted
// behind the mount's back is found. The scrub only reports — repair is
// crfsck -repair or a writable open.
func TestScrubOnline(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 4, Codec: codec.Deflate()})
	rewriteWorkload(t, fs, "a.img", 4<<10, 512, 1)
	rewriteWorkload(t, fs, "b.img", 4<<10, 512, 1)
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	rep, err := compact.Scrub(back, ".", compact.ScrubOptions{Workers: 4})
	if err != nil || !rep.Clean() || rep.Containers != 2 || rep.Frames == 0 {
		t.Fatalf("clean scrub: %+v err=%v", rep, err)
	}

	// Corrupt a payload byte of the closed b.img behind the mount's back.
	box, err := vfs.ReadFile(back, "b.img")
	if err != nil {
		t.Fatal(err)
	}
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	last := frames[len(frames)-1]
	// Wipe the payload with 0xFF: an invalid flate stream, so decode
	// verification must fail. (A single bit flip is not guaranteed to —
	// raw DEFLATE carries no checksum; see DESIGN.md.)
	for i := int64(0); i < int64(last.Header.EncLen); i++ {
		box[last.Pos+codec.HeaderSize+i] = 0xff
	}
	if err := vfs.WriteFile(back, "b.img", box); err != nil {
		t.Fatal(err)
	}
	rep2, err := compact.Scrub(back, ".", compact.ScrubOptions{Workers: 4})
	if err != nil || rep2.Clean() || rep2.CorruptFrames != 1 || rep2.Repaired != 0 {
		t.Fatalf("corruption not found: %+v err=%v", rep2, err)
	}
	if got, err := vfs.ReadFile(back, "b.img"); err != nil || !bytes.Equal(got, box) {
		t.Fatalf("scrub changed the damaged container (err %v)", err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubFindsNothingOnRawMount: raw mounts write plain files; scrub
// sees no containers.
func TestScrubFindsNothingOnRawMount(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2})
	rewriteWorkload(t, fs, "plain.img", 4<<10, 512, 1)
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	rep, err := compact.Scrub(back, ".", compact.ScrubOptions{Workers: 2})
	if err != nil || rep.Containers != 0 {
		t.Fatalf("raw mount scrub saw %d containers (err %v)", rep.Containers, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactStrayTempSkipped: a stray compaction temporary (crash
// between the offline engine's temp write and its rename) is invisible
// to opens and to the scrub's walk, and sweeping removes it.
func TestCompactStrayTempSkipped(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	content := rewriteWorkload(t, fs, "x.img", 2<<10, 512, 1)
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	box, err := vfs.ReadFile(back, "x.img")
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(back, "x.img.crfs-compact~", box); err != nil {
		t.Fatal(err)
	}
	rep, err := compact.Scrub(back, ".", compact.ScrubOptions{Workers: 2})
	if err != nil || rep.Containers != 1 {
		t.Fatalf("scrub saw %d containers (stray temp not skipped?) err=%v", rep.Containers, err)
	}
	if got := readBack(t, fs, "x.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("content wrong")
	}
	if n, err := vfs.SweepTemps(back, "."); err != nil || n != 1 {
		t.Fatalf("swept %d (err %v), want 1", n, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}
