package core

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

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

// TestCompactExplicit proves the core contract: an explicit Compact of
// an open rewrite-heavy container reclaims every dead byte the rewrites
// accumulated (at least a tenth of the container) and reads stay
// byte-identical — through the live handle and after remount — across
// raw and deflate, with and without read-ahead.
func TestCompactExplicit(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cdc       codec.Codec
		readAhead int
	}{
		{"deflate", codec.Deflate(), 0},
		{"deflate/readahead", codec.Deflate(), 4},
		{"raw-codec-mount", nil, 0}, // raw mounts have no containers; Compact is a no-op
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := memfs.New()
			fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 3,
				Codec: tc.cdc, ReadAhead: tc.readAhead})
			content := rewriteWorkload(t, fs, "ckpt.img", 8<<10, 512, 3)
			if err := fs.SyncAll(); err != nil {
				t.Fatal(err)
			}
			before := backendSize(t, back, "ckpt.img")
			if err := fs.Compact("ckpt.img"); err != nil {
				t.Fatal(err)
			}
			after := backendSize(t, back, "ckpt.img")
			st := fs.Stats()
			if tc.cdc == nil {
				if st.ContainersCompacted != 0 || after != before {
					t.Fatalf("raw mount compacted: %d -> %d bytes, stats %+v", before, after, st)
				}
			} else {
				if st.ContainersCompacted != 1 || st.CompactFramesDropped == 0 || after >= before {
					t.Fatalf("compaction ineffective: %d -> %d bytes, stats %+v", before, after, st)
				}
				if st.CompactBytesReclaimed != before-after {
					t.Fatalf("reclaimed %d, backend shrank by %d", st.CompactBytesReclaimed, before-after)
				}
				// The rewrite passes must have left real garbage behind, and
				// one compaction must leave none: a second one over the now
				// minimal container has nothing to reclaim.
				if dead := float64(before-after) / float64(before); dead < 0.1 {
					t.Fatalf("the rewrite workload accumulated only %.1f%% dead bytes", 100*dead)
				}
				if err := fs.Compact("ckpt.img"); err != nil {
					t.Fatal(err)
				}
				if left := float64(after-backendSize(t, back, "ckpt.img")) / float64(after); left > 0.01 {
					t.Fatalf("compaction left %.2f%% dead bytes, want ~0", 100*left)
				}
			}
			if got := readBack(t, fs, "ckpt.img", int64(len(content))); !bytes.Equal(got, content) {
				t.Fatal("reads diverge after compaction through the live mount")
			}
			// Writes after compaction must keep working (fresh seq space).
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

// TestCompactClosedFile: Compact of a path with no open entry routes
// through the open path and compacts the same way.
func TestCompactClosedFile(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	content := rewriteWorkload(t, fs, "cold.img", 4<<10, 512, 2)
	// rewriteWorkload's handle closes via defer... close it by reopening zero handles: SyncAll then nothing holds it open.
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	before := backendSize(t, back, "cold.img")
	if err := fs.Compact("cold.img"); err != nil {
		t.Fatal(err)
	}
	if after := backendSize(t, back, "cold.img"); after >= before {
		t.Fatalf("closed-file compaction did not shrink: %d -> %d", before, after)
	}
	if got := readBack(t, fs, "cold.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("content changed")
	}
	if err := fs.Compact("missing.img"); err == nil {
		t.Fatal("Compact of a missing file succeeded")
	}
}

// TestCompactPolicyTriggers: the Sync/Close policy check fires on its
// own once the dead-byte thresholds are crossed, and MinDeadBytes
// suppresses churn on tiny containers.
func TestCompactPolicyTriggers(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2,
		Codec:      codec.Deflate(),
		Compaction: CompactionPolicy{MinDeadRatio: 0.25, MinDeadBytes: 1024}})
	content := rewriteWorkload(t, fs, "auto.img", 8<<10, 512, 3) // Syncs inside
	if st := fs.Stats(); st.ContainersCompacted == 0 {
		t.Fatalf("policy never fired: %+v", st)
	}
	if got := readBack(t, fs, "auto.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("content changed under policy-driven compaction")
	}
	// A freshly compacted container must not be compacted again by the
	// next Sync (idempotence at the policy level).
	n := fs.Stats().ContainersCompacted
	f, err := fs.Open("auto.img", vfs.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().ContainersCompacted; got != n {
		t.Fatalf("clean container recompacted: %d -> %d", n, got)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactConcurrentReaders races readers (and a writer on a second
// file) against repeated compactions; run under -race in CI.
func TestCompactConcurrentReaders(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 256, BufferPoolSize: 16 << 10, IOThreads: 3,
		Codec: codec.Deflate(), ReadAhead: 4})
	content := rewriteWorkload(t, fs, "hot.img", 4<<10, 256, 2)
	f, err := fs.Open("hot.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 600)
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := rng.Int63n(int64(len(content)) - 1)
				n, err := f.ReadAt(buf, off)
				if err != nil && err != io.EOF {
					t.Errorf("read at %d: %v", off, err)
					return
				}
				if !bytes.Equal(buf[:n], content[off:off+int64(n)]) {
					t.Errorf("read at %d diverged during compaction", off)
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() { // unrelated writer keeps the pipeline busy
		defer wg.Done()
		w, err := fs.Open("other.img", vfs.WriteOnly|vfs.Create)
		if err != nil {
			t.Error(err)
			return
		}
		defer w.Close()
		buf := make([]byte, 512)
		var off int64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.WriteAt(buf, off); err != nil {
				t.Error(err)
				return
			}
			off = (off + 512) % (64 << 10)
		}
	}()
	for i := 0; i < 20; i++ {
		if err := fs.Compact("hot.img"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactSalvagedContainer: compacting a torn container (salvaged at
// open) absorbs the junk tail; the compacted file scans clean.
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
	fs2 := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	if err := fs2.Compact("torn.img"); err != nil {
		t.Fatal(err)
	}
	if st := fs2.Stats(); st.ContainersSalvaged != 1 || st.ContainersCompacted != 1 {
		t.Fatalf("salvaged=%d compacted=%d, want 1/1", st.ContainersSalvaged, st.ContainersCompacted)
	}
	if got := readBack(t, fs2, "torn.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("salvaged content changed by compaction")
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

// TestScrubOnline covers the online scrub: clean mounts verify
// everything, corruption in closed and open containers is found, and
// Repair truncates closed containers only.
func TestScrubOnline(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 4, Codec: codec.Deflate()})
	rewriteWorkload(t, fs, "a.img", 4<<10, 512, 1)
	rewriteWorkload(t, fs, "b.img", 4<<10, 512, 1)
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Scrub(ScrubOptions{})
	if err != nil || !rep.Clean() || rep.Containers != 2 || rep.Frames == 0 {
		t.Fatalf("clean scrub: %+v err=%v", rep, err)
	}
	if st := fs.Stats(); st.FramesVerified != rep.Frames || st.ScrubCorruptions != 0 {
		t.Fatalf("stats not threaded: verified %d corruptions %d vs report frames %d", st.FramesVerified, st.ScrubCorruptions, rep.Frames)
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
	// Keep a.img open so the open-entry path is exercised too.
	fa, err := fs.Open("a.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	rep2, err := fs.Scrub(ScrubOptions{})
	if err != nil || rep2.Clean() || rep2.CorruptFrames != 1 {
		t.Fatalf("corruption not found: %+v err=%v", rep2, err)
	}
	// Repair truncates b.img to its verified prefix.
	rep3, err := fs.Scrub(ScrubOptions{Repair: true})
	if err != nil || rep3.Repaired != 1 {
		t.Fatalf("repair: %+v err=%v", rep3, err)
	}
	if got := backendSize(t, back, "b.img"); got != last.Pos {
		t.Fatalf("repaired size %d, want prefix %d", got, last.Pos)
	}
	rep4, err := fs.Scrub(ScrubOptions{})
	if err != nil || !rep4.Clean() {
		t.Fatalf("post-repair scrub: %+v err=%v", rep4, err)
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
	rep, err := fs.Scrub(ScrubOptions{})
	if err != nil || rep.Containers != 0 {
		t.Fatalf("raw mount scrub saw %d containers (err %v)", rep.Containers, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactStrayTempSkipped: a stray compaction temporary (crash
// between temp write and rename) is invisible to opens and walks, and
// offline sweeping removes it.
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
	if err := vfs.WriteFile(back, "x.img"+compact.TempSuffix, box); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Scrub(ScrubOptions{})
	if err != nil || rep.Containers != 1 {
		t.Fatalf("scrub saw %d containers (stray temp not skipped?) err=%v", rep.Containers, err)
	}
	if got := readBack(t, fs, "x.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("content wrong")
	}
	if n, err := compact.SweepTemps(back, "."); err != nil || n != 1 {
		t.Fatalf("swept %d (err %v), want 1", n, err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactPreservesExtendedContainer: an ftruncate-extended container
// (zero-extent marker frame) keeps its logical size across compaction.
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
	if err := fs.Compact("ext.img"); err != nil {
		t.Fatal(err)
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

// TestCompactRenameRemoveInterplay: compaction aborts cleanly when the
// path is removed underfoot, and rename of a compacted file works.
func TestCompactRenameRemoveInterplay(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
	content := rewriteWorkload(t, fs, "mv.img", 2<<10, 512, 2)
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Compact("mv.img"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("mv.img", "mv2.img"); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, fs, "mv2.img", int64(len(content))); !bytes.Equal(got, content) {
		t.Fatal("content changed across compact+rename")
	}
	if err := fs.Compact("mv2.img"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("mv2.img"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubUnmountNoHang: Unmount racing an in-flight Scrub must not
// strand verification jobs buffered in the maintenance queue — workers
// drain every tier before exiting, and post-close submissions run on
// the caller. The scrubber must return, not hang.
func TestScrubUnmountNoHang(t *testing.T) {
	for i := 0; i < 20; i++ {
		back := memfs.New(memfs.WithReadDelay(200 * time.Microsecond))
		fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 16 << 10, IOThreads: 2, Codec: codec.Deflate()})
		rewriteWorkload(t, fs, "big.img", 32<<10, 512, 0)
		if err := fs.SyncAll(); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			fs.Scrub(ScrubOptions{}) // errors/defect reports irrelevant; it must return
		}()
		time.Sleep(time.Duration(i%5) * 500 * time.Microsecond)
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("Scrub hung across Unmount")
		}
	}
}
