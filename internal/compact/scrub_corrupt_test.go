package compact

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// The scrub-path arm of the corruption-injection matrix (the codec-level
// arms live in internal/codec/corrupt_test.go): the same payload flip,
// pushed through Scrub.

// TestScrubChecksumMatrix flips one raw payload byte and scrubs: the flip
// is a counted checksum failure. (A v1 container, which carries no
// checksum, is refused whole: core's TestV1ContainersRefused.)
func TestScrubChecksumMatrix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := memfs.New()
		box := buildContainer(t, codec.Raw(), [2]int{0, 300}, [2]int{300, 300}, [2]int{600, 300})
		frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
		box[frames[1].Pos+codec.HeaderSize+7] ^= 0x01
		if err := vfs.WriteFile(m, "rot.crfc", box); err != nil {
			t.Fatal(err)
		}
		rep, err := Scrub(m, ".", ScrubOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() || rep.CorruptFrames != 1 || rep.ChecksumFailures != 1 {
			t.Fatalf("workers=%d: flip not attributed to the checksum: %+v", workers, rep)
		}
		if rep.ChecksumVerified != 2 {
			t.Fatalf("workers=%d: counters %+v, want the 2 intact frames checksum-verified", workers, rep)
		}
		if !strings.Contains(rep.Format(), "checksum-failures=1") {
			t.Fatalf("report does not surface the failure:\n%s", rep.Format())
		}
	}
}

// mixedPages returns n 4 KiB pages, odd ones random bytes and even ones
// text: a deflate frame of them is paged, its random pages verbatim.
func mixedPages(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := bytes.Repeat([]byte("vma: registers heap stack signal state\n"), n*4096/39+1)[:n*4096]
	for off := 4096; off < len(out); off += 2 * 4096 {
		rng.Read(out[off : off+4096])
	}
	return out
}

// scrubFlip scrubs a copy of box with bit 0x01 of byte off flipped.
func scrubFlip(t *testing.T, box []byte, off int) *Report {
	t.Helper()
	mut := bytes.Clone(box)
	mut[off] ^= 0x01
	m := memfs.New()
	if err := vfs.WriteFile(m, "rot.crfc", mut); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(m, ".", ScrubOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestScrubStoredBlockFlips is the scrub arm of the stored-block matrix
// (internal/codec TestCorruptionMatrixStoredBlocks), over the frozen
// fixture of that layout: the fixture scrubs clean, a flip in a stored
// block's LEN/NLEN is a corrupt frame, a flip in its data a checksum
// failure, and the scrub reports each.
func TestScrubStoredBlockFlips(t *testing.T) {
	box, err := os.ReadFile(filepath.Join("..", "codec", "testdata", "golden", "deflate-stored-v2.crfc"))
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	if err != nil || len(frames) != 6 {
		t.Fatalf("%d frames, %v", len(frames), err)
	}
	m := memfs.New()
	if err := vfs.WriteFile(m, "stored.crfc", box); err != nil {
		t.Fatal(err)
	}
	if rep, err := Scrub(m, ".", ScrubOptions{Workers: 2}); err != nil || !rep.Clean() || rep.ChecksumVerified != 6 {
		t.Fatalf("the frozen fixture does not scrub clean: %+v, %v", rep, err)
	}
	fr := frames[2] // pages text, random, text, random
	raw, err := codec.DecodeFrame(fr.Header, box[fr.Pos+codec.HeaderSize:fr.End()], nil)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(box, raw[4096:2*4096]) // the first random page's stored data
	if at < 4 {
		t.Fatal("the random page is not stored verbatim")
	}
	for _, off := range []int{at - 4, at - 3, at - 2, at - 1, at, at + 2048, at + 4095} {
		wantSum := int64(0)
		if off >= at {
			wantSum = 1
		}
		if rep := scrubFlip(t, box, off); rep.Clean() || rep.CorruptFrames != 1 || rep.ChecksumFailures != wantSum {
			t.Fatalf("flip at %d (stored data at %d): %+v, want 1 corrupt frame, %d checksum failures", off, at, rep, wantSum)
		}
	}
}

// TestScrubPagedFlips is the scrub arm of the paged-payload matrix
// (internal/codec TestCorruptionMatrixPagedPayload): a flip in a flat
// page is a checksum failure; a flip in the tag, the bitmap or the
// stream is a corrupt frame, and the scrub reports each. (The stream's
// first bit is not sampled: it marks the block that carries every byte
// final, and a flip there only drops the empty block behind it.)
func TestScrubPagedFlips(t *testing.T) {
	src := mixedPages(4, 1)
	box, h, err := codec.EncodeFrame(codec.Deflate(), 0, 0, src, nil)
	if err != nil || h.Codec != codec.DeflateID {
		t.Fatalf("frame: codec %d, %v", h.Codec, err)
	}
	const tag, bitmap, flat = codec.HeaderSize, codec.HeaderSize + 1, codec.HeaderSize + 2
	if !bytes.Equal(box[flat:flat+4096], src[4096:2*4096]) {
		t.Fatal("the first random page is not verbatim behind the tag and bitmap")
	}
	stream := flat + 2*4096
	for _, tc := range []struct {
		off     int
		wantSum int64
	}{
		{tag, 0}, {bitmap, 0}, {flat, 1}, {flat + 2048, 1}, {flat + 2*4096 - 1, 1}, {stream + 8, 0}, {(stream + len(box)) / 2, 0}, {len(box) - 1, 0},
	} {
		rep := scrubFlip(t, box, tc.off)
		if rep.Clean() || rep.CorruptFrames != 1 || tc.wantSum == 1 && rep.ChecksumFailures != 1 {
			t.Fatalf("flip at %d: %+v, want 1 corrupt frame, %d checksum failures", tc.off, rep, tc.wantSum)
		}
	}
}

// TestScrubRepairCountsDiscardedFrames: prefix repair on a mid-container
// checksum failure gives up the intact frames behind it. The loss is
// allowed (the prefix rule is the crash-consistency contract) but it must
// be counted — a repair that silently discards verified data is how quiet
// data loss starts.
func TestScrubRepairCountsDiscardedFrames(t *testing.T) {
	m := memfs.New()
	box := buildContainer(t, codec.Raw(),
		[2]int{0, 200}, [2]int{200, 200}, [2]int{400, 200}, [2]int{600, 200})
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	box[frames[1].Pos+codec.HeaderSize] ^= 0x01 // rot frame 1; frames 2,3 stay intact
	if err := vfs.WriteFile(m, "rot.crfc", box); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(m, ".", ScrubOptions{Workers: 4, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("not repaired: %+v", rep)
	}
	info, err := m.Stat("rot.crfc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != frames[1].Pos {
		t.Fatalf("repaired to %d bytes, want the frame-0 prefix %d", info.Size, frames[1].Pos)
	}
	if rep.FramesDiscarded != 2 {
		t.Fatalf("discarded %d, want the 2 intact frames past the rot: %+v", rep.FramesDiscarded, rep)
	}
	if rep.ChecksumFailures != 1 {
		t.Fatalf("the rotted frame must count as a checksum failure: %+v", rep)
	}
	if !strings.Contains(rep.Format(), "discarded-frames=2") {
		t.Fatalf("report hides the discarded frames:\n%s", rep.Format())
	}
	// The repaired prefix scrubs clean and still checksum-verifies.
	rep2, err := Scrub(m, ".", ScrubOptions{Workers: 4})
	if err != nil || !rep2.Clean() || rep2.ChecksumVerified != 1 {
		t.Fatalf("post-repair scrub: %+v (err %v)", rep2, err)
	}
}

// TestVerifyFramesIntactVerdicts pins the per-index verdict slice the
// repair accounting depends on: Intact lines up with the input order even
// when verification fans out across workers.
func TestVerifyFramesIntactVerdicts(t *testing.T) {
	box := buildContainer(t, codec.Raw(),
		[2]int{0, 300}, [2]int{300, 300}, [2]int{600, 300})
	frames, _, _ := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	box[frames[2].Pos+codec.HeaderSize+5] ^= 0x01
	p := newPool(4)
	defer p.Close()
	res := verifyFrames(bytes.NewReader(box), frames, p.Submit)
	want := []bool{true, true, false}
	if len(res.Intact) != len(want) {
		t.Fatalf("Intact has %d entries for %d frames", len(res.Intact), len(frames))
	}
	for i, w := range want {
		if res.Intact[i] != w {
			t.Fatalf("Intact = %v, want %v", res.Intact, want)
		}
	}
	if res.Verified != 2 || res.Corrupt != 1 || res.FirstCorrupt != frames[2].Pos {
		t.Fatalf("%+v", res)
	}
}
