package core

import (
	"bytes"
	"io"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// A mount never rewrites a container; compaction is the offline engine's
// (internal/compact, crfsck -compact). These tests run that engine over
// the backend of a live mount whose files are closed — between two
// checkpoint runs, as an operator would — and check the mount's side of
// the bargain: containers its write path produced compact to minimal,
// and what it reads, indexes and appends afterwards is unchanged.

func backendSize(t *testing.T, back vfs.FS, name string) int64 {
	t.Helper()
	info, err := back.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size
}

func readBack(t *testing.T, fs *FS, name string, n int64) []byte {
	t.Helper()
	f, err := fs.Open(name, vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, n)
	if n > 0 {
		if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	return got
}

// compactClosed compacts one closed file of a live mount's backend.
func compactClosed(t *testing.T, back vfs.FS, name string) compact.CompactFileReport {
	t.Helper()
	rep := compact.CompactPath(back, name, backendSize(t, back, name))
	if rep.Err != "" {
		t.Fatalf("compacting %s: %s", name, rep.Err)
	}
	return rep
}

// TestCompactExplicit proves the core contract: compacting a
// rewrite-heavy container reclaims every dead byte the rewrites
// accumulated (at least a tenth of the container) and reads stay
// byte-identical — through the live mount and after remount — across raw
// and deflate, at the default read-ahead depth and at depth 4.
func TestCompactExplicit(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cdc       codec.Codec
		readAhead int
	}{
		{"deflate/default", codec.Deflate(), 0},
		{"deflate/readahead", codec.Deflate(), 4},
		{"raw-codec-mount", nil, 0}, // raw mounts have no containers; nothing to compact
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := memfs.New()
			fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 3,
				Codec: tc.cdc, ReadAhead: tc.readAhead})
			content := rewriteWorkload(t, fs, "ckpt.img", 8<<10, 512, 3)
			before := backendSize(t, back, "ckpt.img")
			rep, err := compact.CompactDir(back, ".")
			if err != nil || len(rep.Problems) > 0 {
				t.Fatalf("%+v (err %v)", rep, err)
			}
			after := backendSize(t, back, "ckpt.img")
			if tc.cdc == nil {
				if rep.Containers != 0 || after != before {
					t.Fatalf("raw mount's plain file compacted: %d -> %d bytes, %+v", before, after, rep)
				}
			} else {
				if rep.Compacted != 1 || rep.FramesDropped == 0 || rep.Reclaimed != before-after {
					t.Fatalf("compaction ineffective: %d -> %d bytes, %+v", before, after, rep)
				}
				// The rewrite passes must have left real garbage behind, and
				// one compaction must leave none: a second one over the now
				// minimal container has nothing to reclaim.
				if dead := float64(before-after) / float64(before); dead < 0.1 {
					t.Fatalf("the rewrite workload accumulated only %.1f%% dead bytes", 100*dead)
				}
				if again := compactClosed(t, back, "ckpt.img"); again.Compacted {
					t.Fatalf("a second compaction found more to reclaim: %+v", again)
				}
			}
			if got := readBack(t, fs, "ckpt.img", int64(len(content))); !bytes.Equal(got, content) {
				t.Fatal("reads diverge after compaction through the live mount")
			}
			// Writes after compaction must keep working (the index and the
			// sequence space are rebuilt from the compacted container).
			f, err := fs.Open("ckpt.img", vfs.WriteOnly)
			if err != nil {
				t.Fatal(err)
			}
			tail := bytes.Repeat([]byte{0xAB}, 700)
			if _, err := f.WriteAt(tail, int64(len(content))-100); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			content = append(content[:int64(len(content))-100], tail...)
			if got := readBack(t, fs, "ckpt.img", int64(len(content))); !bytes.Equal(got, content) {
				t.Fatal("reads diverge after post-compaction writes")
			}
			if err := fs.Unmount(); err != nil {
				t.Fatal(err)
			}
			// Remount: the compacted container re-indexes from scratch.
			fs2 := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 3,
				Codec: tc.cdc, ReadAhead: tc.readAhead})
			if got := readBack(t, fs2, "ckpt.img", int64(len(content))); !bytes.Equal(got, content) {
				t.Fatal("reads diverge after remount")
			}
			if info, err := fs2.Stat("ckpt.img"); err != nil || info.Size != int64(len(content)) {
				t.Fatalf("remount Stat = %v/%v, want %d", info.Size, err, len(content))
			}
		})
	}
}

// TestCompactClosedFile: the mount's Stat and reads of a closed file
// follow the compacted container at once (nothing about a closed file
// is cached), and a missing path is the engine's error, not a panic.
func TestCompactClosedFile(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	content := rewriteWorkload(t, fs, "cold.img", 4<<10, 512, 2)
	if info, err := fs.Stat("cold.img"); err != nil || info.Size != int64(len(content)) {
		t.Fatalf("Stat before compaction = %v/%v", info.Size, err)
	}
	before := backendSize(t, back, "cold.img")
	compactClosed(t, back, "cold.img")
	if after := backendSize(t, back, "cold.img"); after >= before {
		t.Fatalf("closed-file compaction did not shrink: %d -> %d", before, after)
	}
	if info, err := fs.Stat("cold.img"); err != nil || info.Size != int64(len(content)) {
		t.Fatalf("Stat after compaction = %v/%v, want %d", info.Size, err, len(content))
	}
	if got := readBack(t, fs, "cold.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("content changed")
	}
	if rep := compact.CompactPath(back, "missing.img", 0); rep.Err == "" {
		t.Fatal("compacting a missing file reported no error")
	}
}

// TestCompactSalvagedContainer: compacting a torn container absorbs the
// junk tail, so the mount that opens it next has nothing to salvage.
func TestCompactSalvagedContainer(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	content := rewriteWorkload(t, fs, "torn.img", 4<<10, 512, 1)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Tear the container: append garbage the scanner cannot parse.
	box, err := vfs.ReadFile(back, "torn.img")
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(back, "torn.img", append(box, []byte("power cut mid-append junk")...)); err != nil {
		t.Fatal(err)
	}
	if rep := compactClosed(t, back, "torn.img"); !rep.Compacted {
		t.Fatalf("torn container not rewritten: %+v", rep)
	}
	fs2 := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	if got := readBack(t, fs2, "torn.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("salvageable content changed by compaction")
	}
	if st := fs2.Stats(); st.ContainersSalvaged != 0 {
		t.Fatalf("the compacted container still needed salvage: %+v", st)
	}
	// The rewritten backend file scans clean end to end.
	raw, err := vfs.ReadFile(back, "torn.img")
	if err != nil {
		t.Fatal(err)
	}
	if _, intact, serr := codec.ScanPrefix(bytes.NewReader(raw), int64(len(raw))); serr != nil || intact != int64(len(raw)) {
		t.Fatalf("compacted container still torn: intact=%d err=%v", intact, serr)
	}
}

// TestCompactPreservesExtendedContainer: an ftruncate-extended container
// (the zero-extent marker frame extendContainer writes) keeps its
// logical size across compaction.
func TestCompactPreservesExtendedContainer(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	f, err := fs.Open("ext.img", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{5}, 600)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil { // dead frame
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(9000); err != nil { // extension marker
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := compactClosed(t, back, "ext.img"); !rep.Compacted {
		t.Fatalf("the dead frame was not dropped: %+v", rep)
	}
	info, err := fs.Stat("ext.img")
	if err != nil || info.Size != 9000 {
		t.Fatalf("logical size after compaction = %d (err %v), want 9000", info.Size, err)
	}
	got := readBack(t, fs, "ext.img", 9000)
	want := make([]byte, 9000)
	copy(want, payload)
	if !bytes.Equal(got, want) {
		t.Fatal("extended container content changed")
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2 := mount(t, back, Options{Codec: codec.Deflate()})
	if info, err := fs2.Stat("ext.img"); err != nil || info.Size != 9000 {
		t.Fatalf("remount logical size = %d (err %v), want 9000", info.Size, err)
	}
	if err := fs2.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRenameRemoveInterplay: a compacted file renames, reads,
// compacts again (to nothing) and removes through the mount like any
// other.
func TestCompactRenameRemoveInterplay(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	content := rewriteWorkload(t, fs, "mv.img", 2<<10, 512, 2)
	compactClosed(t, back, "mv.img")
	if err := fs.Rename("mv.img", "mv2.img"); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, fs, "mv2.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("content changed across compact+rename")
	}
	if rep := compactClosed(t, back, "mv2.img"); rep.Compacted {
		t.Fatalf("a minimal container was rewritten: %+v", rep)
	}
	if err := fs.Remove("mv2.img"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}
