package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// The mount-level arms of the corruption-injection matrix: the live read
// path and the read-ahead prefetcher (the codec and scrub arms live in
// internal/codec and internal/compact). Raw-codec frames are used
// throughout because they are the worst case: a raw payload decodes at
// any contents, so every flip is silent without the checksum.

// rawFrameContainer builds a raw-frame container of `frames` extents and
// returns it with its logical content.
func rawFrameContainer(t *testing.T, frames, extent int) (box, content []byte) {
	t.Helper()
	for i := 0; i < frames; i++ {
		part := compressiblePayload(extent, int64(i+1))
		var err error
		box, _, err = codec.EncodeFrame(codec.Raw(), uint64(i), int64(i*extent), part, box)
		if err != nil {
			t.Fatal(err)
		}
		content = append(content, part...)
	}
	return box, content
}

// TestReadAtChecksumMatrix pins the live read path's verdict on bit rot
// that lands while a handle is open (past open-time salvage): the frame
// fails the read with ErrChecksum and counts it.
func TestReadAtChecksumMatrix(t *testing.T) {
	box, content := rawFrameContainer(t, 3, 8<<10)
	back := memfs.New()
	if err := vfs.WriteFile(back, "ck.img", box); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate()})
	f, err := fs.Open("ck.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	// Clean read first: the whole file round-trips and the verify
	// counters attribute every frame.
	got := make([]byte, len(content))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("clean read: %v", err)
	}
	if st := fs.Stats(); st.ChecksumVerified == 0 || st.ChecksumFailed != 0 {
		t.Fatalf("clean read counters: %+v", st)
	}
	// Rot frame 1's payload behind the open handle's back.
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	rotted := bytes.Clone(box)
	rotted[frames[1].Pos+codec.HeaderSize+100] ^= 0x01
	if err := vfs.WriteFile(back, "ck.img", rotted); err != nil {
		t.Fatal(err)
	}
	if _, err = f.ReadAt(got, 0); !errors.Is(err, codec.ErrChecksum) || !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("read of rotted frame: %v, want ErrChecksum", err)
	}
	if st := fs.Stats(); st.ChecksumFailed == 0 {
		t.Fatalf("rot not counted: %+v", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitPoolWhole(t, fs) // the failed decode gave its buffer back
}

// TestPrefetchChecksumMatrix drives the read-ahead pipeline: prefetched
// frames count as verified, and rot under a prefetch is counted and never
// served.
func TestPrefetchChecksumMatrix(t *testing.T) {
	box, content := rawFrameContainer(t, 8, 8<<10)
	// The read delay gives the workers a head start; with a
	// zero-latency backend the reader steals every job back before a
	// worker publishes (see TestReadAheadSequential).
	back := memfs.New(memfs.WithReadDelay(200 * time.Microsecond))
	if err := vfs.WriteFile(back, "ck.img", box); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, back, Options{
		ChunkSize: 8 << 10, BufferPoolSize: 64 << 10, IOThreads: 4,
		ReadAhead: 4, Codec: codec.Deflate(),
	})
	f, err := fs.Open("ck.img", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	readSequential(t, f, content, 2048)
	readSequential(t, f, content, 2048)
	time.Sleep(20 * time.Millisecond) // let in-flight jobs publish
	readSequential(t, f, content, 2048)
	st := fs.Stats()
	if st.PrefetchedBytes == 0 {
		t.Fatalf("sequential read never prefetched: %+v", st)
	}
	if st.ChecksumVerified == 0 || st.ChecksumFailed != 0 {
		t.Fatalf("prefetch counters: %+v", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Rot under the prefetcher: corrupt a late frame after open, read
	// sequentially. Whether the failing decode happens on the prefetch
	// path or the read path, the read must error with ErrChecksum — a
	// prefetched frame that failed its CRC is dropped, never served.
	if f, err = fs.Open("ck.img", vfs.ReadOnly); err != nil {
		t.Fatal(err)
	}
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	rotted := bytes.Clone(box)
	rotted[frames[6].Pos+codec.HeaderSize+50] ^= 0x01
	if err := vfs.WriteFile(back, "ck.img", rotted); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	var readErr error
	var off int64
	for off = 0; off < int64(len(content)); off += int64(len(buf)) {
		n, err := f.ReadAt(buf, off)
		if err != nil {
			readErr = err
			break
		}
		if !bytes.Equal(buf[:n], content[off:off+int64(n)]) {
			t.Fatalf("read at %d served rotted or stale bytes", off)
		}
	}
	if !errors.Is(readErr, codec.ErrChecksum) {
		t.Fatalf("sequential read over rot: %v, want ErrChecksum", readErr)
	}
	if st := fs.Stats(); st.ChecksumFailed == 0 {
		t.Fatalf("rot under prefetch not counted: %+v", st)
	}
	// The failed decode published nothing and kept nothing: the rotted
	// frame is not in the read-ahead cache, and once the handle is closed
	// every chunk and decode buffer is back on its free list.
	pf := f.(*file).entry.pf
	pf.mu.Lock()
	_, cached := pf.ready[frames[6].Pos]
	pf.mu.Unlock()
	if cached {
		t.Fatal("a frame that failed its checksum sits in the read-ahead cache")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitPoolWhole(t, fs)
}

// rotTarget is a deflate container to rot: its bytes, its logical
// content, its frames, the frame the flips go into, and sampled container
// offsets into that frame — shape flips, which break the payload's
// layout or its stream and fail as ErrCorrupt, then data flips, into a
// flat page, which inflates at any contents and fails only its CRC, as
// ErrChecksum.
type rotTarget struct {
	box, content []byte
	frames       []codec.FrameInfo
	rot          int
	shape, data  []int
	chunk        int64 // a ChunkSize that holds every frame
	// shapeMaySum lets a shape flip fail as ErrChecksum too: a flip in a
	// paged payload's stream may inflate to the right length with the
	// wrong bytes. A stored block's LEN/NLEN flip is always ErrCorrupt.
	shapeMaySum bool
}

// firstFlatPage returns where in the container the first page of frame
// fr that sits verbatim in its payload (a flat page) starts.
func firstFlatPage(t *testing.T, box, content []byte, fr codec.FrameInfo) int {
	t.Helper()
	raw := content[fr.Header.Off : fr.Header.Off+int64(fr.Header.RawLen)]
	payload := box[fr.Pos+codec.HeaderSize : fr.End()]
	for off := 0; off+4096 <= len(raw); off += 4096 {
		if at := bytes.Index(payload, raw[off:off+4096]); at > 0 {
			return int(fr.Pos+codec.HeaderSize) + at
		}
	}
	t.Fatalf("frame at %d stores no page verbatim", fr.Pos)
	return 0
}

// pagedContainer builds a v2 deflate container of `frames` extents, each
// of 4 KiB pages alternating text and random bytes, so every frame is
// paged. Frame rot's shape flips are its tag, its bitmap and the last
// byte of its stream; its data flips the first and last byte of its
// first random page.
func pagedContainer(t *testing.T, frames, extent, rot int) rotTarget {
	t.Helper()
	rt := rotTarget{rot: rot, chunk: int64(extent), shapeMaySum: true}
	rng := rand.New(rand.NewSource(int64(frames)))
	for i := 0; i < frames; i++ {
		part := compressiblePayload(extent, int64(i+1))
		for off := 4096; off < extent; off += 2 * 4096 {
			rng.Read(part[off : off+4096])
		}
		var h codec.Header
		var err error
		rt.box, h, err = codec.EncodeFrame(codec.Deflate(), uint64(i), int64(i*extent), part, rt.box)
		if err != nil || h.Codec != codec.DeflateID {
			t.Fatalf("frame %d: codec %d, %v", i, h.Codec, err)
		}
		rt.content = append(rt.content, part...)
	}
	rt.frames, _, _ = codec.ScanPrefix(bytes.NewReader(rt.box), int64(len(rt.box)))
	fr := rt.frames[rot]
	payload := int(fr.Pos + codec.HeaderSize)
	if at := firstFlatPage(t, rt.box, rt.content, fr); at != payload+2 {
		t.Fatalf("frame %d: its first random page is at %d, not behind the tag and bitmap", rot, at)
	}
	rt.shape = []int{payload, payload + 1, int(fr.End()) - 1}
	rt.data = []int{payload + 2, payload + 2 + 4095}
	return rt
}

// frozenStoredContainer is the frozen fixture of the stored-block layout
// (internal/codec/testdata/golden/deflate-stored-v2.crfc). Frame rot's
// shape flips are the LEN/NLEN in front of its first stored page; its
// data flips that page's first and last byte.
func frozenStoredContainer(t *testing.T, rot int) rotTarget {
	t.Helper()
	box, err := os.ReadFile(filepath.Join("..", "codec", "testdata", "golden", "deflate-stored-v2.crfc"))
	if err != nil {
		t.Fatal(err)
	}
	rt := rotTarget{box: box, rot: rot, chunk: 128 << 10}
	rt.frames, _, err = codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range rt.frames {
		raw, err := codec.DecodeFrame(fr.Header, box[fr.Pos+codec.HeaderSize:fr.End()], nil)
		if err != nil || fr.Header.Off != int64(len(rt.content)) {
			t.Fatalf("frame at %d: %v", fr.Pos, err)
		}
		rt.content = append(rt.content, raw...)
	}
	at := firstFlatPage(t, box, rt.content, rt.frames[rot])
	rt.shape = []int{at - 4, at - 3, at - 2, at - 1}
	rt.data = []int{at, at + 4095}
	return rt
}

// frameRange is the logical range frame i covers.
func (rt rotTarget) frameRange(i int) (off, end int64) {
	h := rt.frames[i].Header
	return h.Off, h.Off + int64(h.RawLen)
}

// TestReadAtStoredBlockFlips is the read-path arm of the stored-block
// matrix (internal/codec TestCorruptionMatrixStoredBlocks), over the
// frozen fixture of that layout: a flip in a stored block's LEN/NLEN fails
// the read as ErrCorrupt, a flip in its data as ErrChecksum, the frames
// around it still read back, and no read hands back a rotted byte.
func TestReadAtStoredBlockFlips(t *testing.T) {
	readAtFlips(t, frozenStoredContainer(t, 2))
}

// TestReadAtPagedFlips is the read-path arm of the paged-payload matrix
// (internal/codec TestCorruptionMatrixPagedPayload), with the verdicts of
// TestReadAtStoredBlockFlips.
func TestReadAtPagedFlips(t *testing.T) {
	readAtFlips(t, pagedContainer(t, 3, 16<<10, 1))
}

func readAtFlips(t *testing.T, rt rotTarget) {
	t.Helper()
	for i, at := range append(rt.shape, rt.data...) {
		dataFlip := i >= len(rt.shape)
		rotted := bytes.Clone(rt.box)
		rotted[at] ^= 0x01
		back := memfs.New()
		if err := vfs.WriteFile(back, "ck.img", rotted); err != nil {
			t.Fatal(err)
		}
		fs := mount(t, back, Options{ChunkSize: rt.chunk, BufferPoolSize: 4 * rt.chunk, Codec: codec.Deflate()})
		f, err := fs.Open("ck.img", vfs.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		for frame := range rt.frames {
			off, end := rt.frameRange(frame)
			got := make([]byte, end-off)
			_, err := f.ReadAt(got, off)
			if frame != rt.rot {
				if err != nil || !bytes.Equal(got, rt.content[off:end]) {
					t.Fatalf("flip %d: intact frame %d: %v", i, frame, err)
				}
				continue
			}
			sum := errors.Is(err, codec.ErrChecksum)
			if !errors.Is(err, codec.ErrCorrupt) || dataFlip && !sum || !dataFlip && sum && !rt.shapeMaySum {
				t.Fatalf("flip %d at %d: read of the rotted frame: %v", i, at, err)
			}
			if st := fs.Stats(); (st.ChecksumFailed != 0) != sum {
				t.Fatalf("flip %d at %d: %v, yet %d checksum failures counted", i, at, err, st.ChecksumFailed)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		waitPoolWhole(t, fs)
	}
}

// TestPrefetchStoredBlockFlips is the read-ahead arm, over the frozen
// fixture of the stored-block layout: rot in a late frame's stored block,
// found by a prefetch or by the read itself, fails the sequential read
// where it reaches that frame with ErrCorrupt, every byte before it is
// right, and the frame never enters the read-ahead cache.
func TestPrefetchStoredBlockFlips(t *testing.T) {
	prefetchFlips(t, frozenStoredContainer(t, 5))
}

// TestPrefetchPagedFlips is TestPrefetchStoredBlockFlips over paged
// payloads.
func TestPrefetchPagedFlips(t *testing.T) {
	prefetchFlips(t, pagedContainer(t, 8, 8<<10, 6))
}

func prefetchFlips(t *testing.T, rt rotTarget) {
	t.Helper()
	start, _ := rt.frameRange(rt.rot)
	for _, at := range []int{rt.shape[0], rt.data[len(rt.data)-1]} {
		rotted := bytes.Clone(rt.box)
		rotted[at] ^= 0x01
		back := memfs.New(memfs.WithReadDelay(200 * time.Microsecond))
		if err := vfs.WriteFile(back, "ck.img", rotted); err != nil {
			t.Fatal(err)
		}
		fs := mount(t, back, Options{
			ChunkSize: rt.chunk, BufferPoolSize: 8 * rt.chunk, IOThreads: 4,
			ReadAhead: 4, Codec: codec.Deflate(),
		})
		f, err := fs.Open("ck.img", vfs.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2048)
		var readErr error
		for off := int64(0); off < int64(len(rt.content)); off += int64(len(buf)) {
			n, err := f.ReadAt(buf, off)
			if err != nil {
				// A stream's small read copies up to selfFetchMax ahead
				// within its chunk, so where the frame starts inside a
				// chunk the read that meets the rot may start that far
				// before it. A copy never crosses a chunk boundary.
				early := int64(0)
				if start%rt.chunk != 0 {
					early = selfFetchMax - 1
				}
				if off > start || off+early < start {
					t.Fatalf("flip at %d: read failed at %d, the rotted frame starts at %d: %v", at, off, start, err)
				}
				readErr = err
				break
			}
			if !bytes.Equal(buf[:n], rt.content[off:off+int64(n)]) {
				t.Fatalf("flip at %d: read at %d served wrong bytes", at, off)
			}
		}
		if !errors.Is(readErr, codec.ErrCorrupt) {
			t.Fatalf("flip at %d: sequential read over rot: %v, want ErrCorrupt", at, readErr)
		}
		if st := fs.Stats(); st.PrefetchedBytes == 0 {
			t.Fatalf("flip at %d: the read never prefetched: %+v", at, st)
		}
		pf := f.(*file).entry.pf
		pf.mu.Lock()
		_, cached := pf.ready[rt.frames[rt.rot].Pos]
		pf.mu.Unlock()
		if cached {
			t.Fatalf("flip at %d: the rotted frame sits in the read-ahead cache", at)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		waitPoolWhole(t, fs)
	}
}

// TestScrubCountsChecksums: over a mixed-codec mount's backend (raw-frame
// container pre-seeded, deflate written by the mount) the scrub report
// counts every frame proven by its checksum.
func TestScrubCountsChecksums(t *testing.T) {
	back := memfs.New()
	rawBox, _ := rawFrameContainer(t, 3, 4<<10)
	if err := vfs.WriteFile(back, "old.img", rawBox); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, back, Options{ChunkSize: 8 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate()})
	writeThrough(t, fs, "new.img", compressiblePayload(24<<10, 7), 8<<10)
	rep, err := compact.Scrub(back, ".", compact.ScrubOptions{Workers: fs.Options().IOThreads})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean mount scrubbed dirty: %+v", rep)
	}
	if rep.ChecksumVerified < 6 {
		t.Fatalf("mixed-codec scrub counters: verified=%d, want >= 6", rep.ChecksumVerified)
	}
}

// TestOpenSalvageCountsChecksumFailure: when open-time salvage runs (the
// structural scan failed — here, a torn tail), it verifies payloads too:
// a rotted v2 frame truncates the served prefix at the rot, not just at
// the tear, and the failure lands in Stats, not in silence. (A
// structurally intact chain is scanned headers-only at open — payload rot
// behind it is the read path's and the scrub's to catch.)
func TestOpenSalvageCountsChecksumFailure(t *testing.T) {
	box, content := rawFrameContainer(t, 3, 8<<10)
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	box[frames[2].Pos+codec.HeaderSize+9] ^= 0x01      // rot the last frame...
	box = append(box, "torn tail from a power cut"...) // ...behind a tear
	back := memfs.New()
	if err := vfs.WriteFile(back, "ck.img", box); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, back, Options{ChunkSize: 16 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate()})
	got := readThrough(t, fs, "ck.img")
	if want := content[:2*8<<10]; !bytes.Equal(got, want) {
		t.Fatalf("salvaged read: %d bytes, want the 2-frame intact prefix (%d)", len(got), len(want))
	}
	st := fs.Stats()
	if st.ContainersSalvaged != 1 || st.ChecksumFailed != 1 {
		t.Fatalf("open-time rot: %+v / %+v, want 1 salvage + 1 checksum failure",
			st, st)
	}
	if st.ChecksumVerified < 2 {
		t.Fatalf("intact prefix frames not counted verified: %+v", st)
	}
}
