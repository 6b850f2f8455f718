package compact

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// payload builds a deterministic, mildly compressible payload.
func payload(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((seed*31 + i/7 + i*i%13) % 251)
	}
	return p
}

// buildContainer encodes extents (off, data) as one container.
func buildContainer(t *testing.T, c codec.Codec, extents ...[2]int) []byte {
	t.Helper()
	var box []byte
	for i, e := range extents {
		var err error
		box, _, err = codec.EncodeFrame(c, uint64(i), int64(e[0]), payload(e[1], i+1), box)
		if err != nil {
			t.Fatal(err)
		}
	}
	return box
}

// replay materializes the logical content a container serves.
func replay(t *testing.T, box []byte) []byte {
	t.Helper()
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	var logical int64
	for _, fr := range frames {
		if end := fr.Header.Off + int64(fr.Header.RawLen); end > logical {
			logical = end
		}
	}
	img := make([]byte, logical)
	for _, fr := range frames { // scan order == seq order for our fixtures
		if fr.Header.RawLen == 0 {
			continue
		}
		enc := box[fr.Pos+codec.HeaderSize : fr.Pos+codec.HeaderSize+int64(fr.Header.EncLen)]
		raw, err := codec.DecodeFrame(fr.Header, enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		copy(img[fr.Header.Off:], raw)
	}
	return img
}

// tree builds a memfs with a mix of containers, plain files, and strays.
func tree(t *testing.T) (*memfs.FS, map[string][]byte) {
	t.Helper()
	m := memfs.New()
	if err := m.MkdirAll("ckpt/sub"); err != nil {
		t.Fatal(err)
	}
	boxes := map[string][]byte{
		"ckpt/a.crfc":     buildContainer(t, codec.Deflate(), [2]int{0, 400}, [2]int{400, 400}, [2]int{0, 400}),
		"ckpt/sub/b.crfc": buildContainer(t, codec.Raw(), [2]int{0, 256}, [2]int{256, 128}),
	}
	for name, box := range boxes {
		if err := vfs.WriteFile(m, name, box); err != nil {
			t.Fatal(err)
		}
	}
	// Non-containers the walk must skip.
	if err := vfs.WriteFile(m, "ckpt/plain.txt", []byte("not a container, definitely long enough")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(m, "ckpt/stray"+TempSuffix, boxes["ckpt/a.crfc"]); err != nil {
		t.Fatal(err)
	}
	return m, boxes
}

func TestWalkFindsContainersOnly(t *testing.T) {
	m, boxes := tree(t)
	seen := map[string]int64{}
	if err := Walk(m, ".", func(path string, size int64) error {
		seen[path] = size
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(boxes) {
		t.Fatalf("walk saw %v, want exactly the containers %d", seen, len(boxes))
	}
	for name, box := range boxes {
		if seen[name] != int64(len(box)) {
			t.Fatalf("walk size of %s = %d, want %d", name, seen[name], len(box))
		}
	}
}

func TestSweepTemps(t *testing.T) {
	m, _ := tree(t)
	n, err := SweepTemps(m, ".")
	if err != nil || n != 1 {
		t.Fatalf("swept %d (err %v), want 1", n, err)
	}
	if _, err := m.Stat("ckpt/stray" + TempSuffix); err == nil {
		t.Fatal("stray temp survived the sweep")
	}
}

func TestScrubCleanTree(t *testing.T) {
	m, boxes := tree(t)
	rep, err := Scrub(m, ".", ScrubOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Containers != len(boxes) || rep.Frames != 5 {
		t.Fatalf("clean tree scrub: %+v", rep)
	}
}

func TestScrubDetectsCorruptionAndTears(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m, boxes := tree(t)
		// Flip a payload byte of a.crfc's second frame.
		box := append([]byte(nil), boxes["ckpt/a.crfc"]...)
		frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
		box[frames[1].Pos+codec.HeaderSize+3] ^= 0xff
		if err := vfs.WriteFile(m, "ckpt/a.crfc", box); err != nil {
			t.Fatal(err)
		}
		// Tear b.crfc mid-frame.
		torn := boxes["ckpt/sub/b.crfc"]
		torn = torn[:len(torn)-5]
		if err := vfs.WriteFile(m, "ckpt/sub/b.crfc", torn); err != nil {
			t.Fatal(err)
		}
		rep, err := Scrub(m, ".", ScrubOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() || rep.CorruptFrames != 1 || rep.TornContainers != 1 || rep.TornBytes != codec.HeaderSize+128-5 {
			t.Fatalf("workers=%d: %+v", workers, rep)
		}
		if len(rep.Problems) != 2 {
			t.Fatalf("workers=%d: problems %+v", workers, rep.Problems)
		}
	}
}

func TestScrubRepair(t *testing.T) {
	m, boxes := tree(t)
	box := append([]byte(nil), boxes["ckpt/a.crfc"]...)
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	box[frames[1].Pos+codec.HeaderSize+3] ^= 0xff // corrupt frame 1 of 3
	if err := vfs.WriteFile(m, "ckpt/a.crfc", box); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(m, ".", ScrubOptions{Workers: 4, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("repaired %d, want 1: %+v", rep.Repaired, rep)
	}
	// The repaired container is the verified prefix: frame 0 only.
	info, err := m.Stat("ckpt/a.crfc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != frames[1].Pos {
		t.Fatalf("repaired size %d, want prefix %d", info.Size, frames[1].Pos)
	}
	// A second scrub is clean.
	rep2, err := Scrub(m, ".", ScrubOptions{Workers: 4})
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-repair scrub not clean: %+v (err %v)", rep2, err)
	}
}

func TestCompactDir(t *testing.T) {
	m, boxes := tree(t)
	wantA := replay(t, boxes["ckpt/a.crfc"])
	wantB := replay(t, boxes["ckpt/sub/b.crfc"])
	rep, err := CompactDir(m, ".")
	if err != nil {
		t.Fatal(err)
	}
	// a.crfc has a fully shadowed frame; b.crfc is already minimal.
	if rep.Containers != 2 || rep.Compacted != 1 || rep.FramesDropped != 1 || rep.Reclaimed <= 0 {
		t.Fatalf("%+v", rep)
	}
	if rep.TempsSwept != 1 {
		t.Fatalf("swept %d temps, want the stray", rep.TempsSwept)
	}
	gotA, err := vfs.ReadFile(m, "ckpt/a.crfc")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(gotA)) >= int64(len(boxes["ckpt/a.crfc"])) {
		t.Fatalf("a.crfc not shrunk: %d of %d", len(gotA), len(boxes["ckpt/a.crfc"]))
	}
	if !bytes.Equal(replay(t, gotA), wantA) {
		t.Fatal("a.crfc content changed by compaction")
	}
	gotB, err := vfs.ReadFile(m, "ckpt/sub/b.crfc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, boxes["ckpt/sub/b.crfc"]) || !bytes.Equal(replay(t, gotB), wantB) {
		t.Fatal("minimal b.crfc was rewritten or changed")
	}
	// Idempotence at the directory level.
	rep2, err := CompactDir(m, ".")
	if err != nil || rep2.Compacted != 0 {
		t.Fatalf("second pass compacted %d (err %v), want 0", rep2.Compacted, err)
	}
}

// TestCompactPathInputs runs CompactPath over the two container shapes
// only a mount's write path produces and the tree's fixtures lack: the
// in-place incremental checkpoint (16 extents, then four passes that
// overwrite every other one), whose rewrite must leave exactly no dead
// byte, and an ftruncate-extended container, whose zero-extent marker
// must keep carrying the logical size.
func TestCompactPathInputs(t *testing.T) {
	var rewrites [][2]int
	for off := 0; off < 16*512; off += 512 {
		rewrites = append(rewrites, [2]int{off, 512})
	}
	for pass := 0; pass < 4; pass++ {
		for off := 0; off < 16*512; off += 1024 {
			rewrites = append(rewrites, [2]int{off, 512})
		}
	}
	// A payload, its overwrite (a dead frame), then the extension marker.
	extended := buildContainer(t, codec.Deflate(), [2]int{0, 600}, [2]int{0, 600})
	marker := make([]byte, codec.HeaderSize)
	codec.PutHeader(marker, codec.Header{Version: codec.Version, Codec: codec.RawID, Seq: 2, Off: 9000})
	extended = append(extended, marker...)

	for _, tc := range []struct {
		name    string
		box     []byte
		logical int
	}{
		{"rewritten", buildContainer(t, codec.Deflate(), rewrites...), 16 * 512},
		{"extended", extended, 9000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := memfs.New()
			if err := vfs.WriteFile(m, "c.crfc", tc.box); err != nil {
				t.Fatal(err)
			}
			want := replay(t, tc.box)
			if len(want) != tc.logical {
				t.Fatalf("fixture serves %d bytes, want %d", len(want), tc.logical)
			}
			rep := CompactPath(m, "c.crfc", int64(len(tc.box)))
			got, err := vfs.ReadFile(m, "c.crfc")
			if err != nil || rep.Err != "" || !rep.Compacted || rep.FramesDropped == 0 {
				t.Fatalf("%+v (err %v)", rep, err)
			}
			if rep.Reclaimed != int64(len(tc.box)-len(got)) {
				t.Fatalf("reported %d reclaimed, file shrank by %d", rep.Reclaimed, len(tc.box)-len(got))
			}
			if dead := float64(rep.Reclaimed) / float64(len(tc.box)); dead < 0.1 {
				t.Fatalf("the fixture carried only %.1f%% dead bytes", 100*dead)
			}
			frames, intact, serr := codec.ScanPrefix(bytes.NewReader(got), int64(len(got)))
			if serr != nil || intact != int64(len(got)) {
				t.Fatalf("rewritten container does not scan clean: intact=%d err=%v", intact, serr)
			}
			if lv := codec.Analyze(frames); lv.DeadBytes != 0 || lv.NeedMarker || lv.LiveBytes != int64(len(got)) {
				t.Fatalf("rewritten container is not minimal: %d dead, %d live of %d bytes", lv.DeadBytes, lv.LiveBytes, len(got))
			}
			if !bytes.Equal(replay(t, got), want) {
				t.Fatal("content or logical size changed by compaction")
			}
			if rep2 := CompactPath(m, "c.crfc", int64(len(got))); rep2.Compacted || rep2.Err != "" {
				t.Fatalf("second pass over a minimal container: %+v", rep2)
			}
		})
	}
}

func TestCompactRepairsTornContainer(t *testing.T) {
	m, boxes := tree(t)
	torn := append([]byte(nil), boxes["ckpt/a.crfc"]...)
	want := replay(t, torn[:func() int64 {
		frames, _, _ := codec.ScanPrefix(bytes.NewReader(torn), int64(len(torn)))
		return frames[len(frames)-1].End()
	}()])
	torn = append(torn, []byte("garbage tail from a power cut")...)
	if err := vfs.WriteFile(m, "ckpt/a.crfc", torn); err != nil {
		t.Fatal(err)
	}
	rep, err := CompactDir(m, ".")
	if err != nil || rep.Compacted < 1 {
		t.Fatalf("%+v (err %v)", rep, err)
	}
	got, err := vfs.ReadFile(m, "ckpt/a.crfc")
	if err != nil {
		t.Fatal(err)
	}
	frames, intact, serr := codec.ScanPrefix(bytes.NewReader(got), int64(len(got)))
	if serr != nil || intact != int64(len(got)) || len(frames) != 2 {
		t.Fatalf("compacted torn container: frames=%d intact=%d err=%v", len(frames), intact, serr)
	}
	if !bytes.Equal(replay(t, got), want) {
		t.Fatal("torn-container compaction changed the salvageable content")
	}
}

func TestCompactLeavesCorruptContainerAlone(t *testing.T) {
	m, boxes := tree(t)
	box := append([]byte(nil), boxes["ckpt/a.crfc"]...)
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	// Corrupt a *live* frame's payload (the last one).
	box[frames[2].Pos+codec.HeaderSize+3] ^= 0xff
	if err := vfs.WriteFile(m, "ckpt/a.crfc", box); err != nil {
		t.Fatal(err)
	}
	rep, err := CompactDir(m, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 1 || rep.Problems[0].Path != "ckpt/a.crfc" {
		t.Fatalf("corrupt container not reported: %+v", rep)
	}
	got, err := vfs.ReadFile(m, "ckpt/a.crfc")
	if err != nil || !bytes.Equal(got, box) {
		t.Fatal("corrupt container was rewritten")
	}
}

// failAfterFS wraps a vfs.FS so reads past a byte offset fail with a
// non-corruption backend error, modeling a transiently sick device.
type failAfterFS struct {
	vfs.FS
	after int64
}

type failAfterFile struct {
	vfs.File
	after int64
}

func (f failAfterFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	inner, err := f.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return failAfterFile{inner, f.after}, nil
}

func (f failAfterFile) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.after {
		return 0, errors.New("backend: transient IO failure")
	}
	return f.File.ReadAt(p, off)
}

// TestScrubRepairNeverTruncatesOnBackendError: a frame that cannot be
// read is unverifiable, not corrupt — repair must leave the container
// alone (truncating would turn a flaky read into permanent data loss).
func TestScrubRepairNeverTruncatesOnBackendError(t *testing.T) {
	m, boxes := tree(t)
	box := boxes["ckpt/a.crfc"]
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	sick := failAfterFS{FS: m, after: frames[1].Pos + codec.HeaderSize} // frame 1+ payloads unreadable
	rep, err := Scrub(sick, ".", ScrubOptions{Workers: 4, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 0 {
		t.Fatalf("repair truncated on a backend error: %+v", rep)
	}
	if rep.CorruptFrames != 0 {
		t.Fatalf("backend failures misclassified as corruption: %+v", rep)
	}
	if len(rep.Problems) == 0 || rep.Problems[0].Err == "" {
		t.Fatalf("unverifiable container not reported: %+v", rep)
	}
	if got, _ := vfs.ReadFile(m, "ckpt/a.crfc"); !bytes.Equal(got, box) {
		t.Fatal("container bytes changed")
	}
}

// meterFS counts how many frame-payload reads (a read that starts at one
// of the payloadAt offsets) are inside the backend at once. The first such
// read stays in the backend until a second one joins it or hold passes,
// so neither "the scrub reads in parallel" nor "it never does" hangs on
// how the reads happen to fall in time.
type meterFS struct {
	vfs.FS
	payloadAt map[int64]bool
	hold      time.Duration
	joined    chan struct{} // closed once two reads are inside together
	once      sync.Once

	mu                  sync.Mutex
	reads, inside, peak int
}

type meterFile struct {
	vfs.File
	m *meterFS
}

func (m *meterFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	inner, err := m.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return meterFile{inner, m}, nil
}

func (f meterFile) ReadAt(p []byte, off int64) (int, error) {
	m := f.m
	if !m.payloadAt[off] {
		return f.File.ReadAt(p, off)
	}
	m.mu.Lock()
	m.reads++
	first := m.reads == 1
	m.inside++
	if m.inside > m.peak {
		m.peak = m.inside
	}
	if m.inside >= 2 {
		m.once.Do(func() { close(m.joined) })
	}
	m.mu.Unlock()
	if first {
		select {
		case <-m.joined:
		case <-time.After(m.hold):
		}
	}
	n, err := f.File.ReadAt(p, off)
	m.mu.Lock()
	m.inside--
	m.mu.Unlock()
	return n, err
}

// TestScrubReadsInParallel: Workers is how many frame payloads the scrub
// reads from the backend at once — two or more with four workers, never
// more than one with one.
func TestScrubReadsInParallel(t *testing.T) {
	m := memfs.New()
	var extents [][2]int
	for i := 0; i < 16; i++ {
		extents = append(extents, [2]int{i * 400, 400})
	}
	box := buildContainer(t, codec.Deflate(), extents...)
	if err := vfs.WriteFile(m, "big.crfc", box); err != nil {
		t.Fatal(err)
	}
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	payloadAt := make(map[int64]bool)
	for _, fr := range frames {
		payloadAt[fr.Pos+codec.HeaderSize] = true
	}
	for _, tc := range []struct {
		workers  int
		parallel bool
		hold     time.Duration // how long the first read waits for a second
	}{
		{1, false, 50 * time.Millisecond}, // room for a read nothing should issue
		{4, true, 10 * time.Second},       // a serial scrub: let it finish and fail on the peak
	} {
		meter := &meterFS{FS: m, payloadAt: payloadAt, hold: tc.hold, joined: make(chan struct{})}
		rep, err := Scrub(meter, ".", ScrubOptions{Workers: tc.workers})
		if err != nil || !rep.Clean() || rep.Frames != int64(len(frames)) {
			t.Fatalf("workers=%d: scrub of a healthy container: %+v err=%v", tc.workers, rep, err)
		}
		if tc.parallel && meter.peak < 2 {
			t.Errorf("workers=%d: at most %d payload read in the backend at once, want >= 2", tc.workers, meter.peak)
		}
		if !tc.parallel && meter.peak != 1 {
			t.Errorf("workers=%d: %d payload reads in the backend at once, want exactly 1", tc.workers, meter.peak)
		}
	}
}
