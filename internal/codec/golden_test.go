package codec

import (
	"bytes"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Golden container fixtures: small checked-in containers (v1 and v2,
// raw and deflate, multi-frame, with an overwrite history; plus torn
// variants) that both the strict scanner and the salvage path must keep
// reading byte-identically — a format-compatibility ratchet. The raw v1
// fixtures are generated with EncodeFrameVersion's legacy path, so a
// -update run reproduces the same bytes forever and the reader's v1
// support can never silently rot. The deflate fixtures the stdlib writer
// once encoded are frozen (frozenDeflateFixtures); the ones -update
// writes pin what the encoder writes today. Regenerate with `go test
// ./internal/codec -run TestGolden -update` only for a deliberate,
// documented format or encoder change.

var updateGolden = flag.Bool("update", false, "rewrite golden container fixtures")

const (
	goldenDir  = "testdata/golden"
	corruptDir = "testdata/corrupt"
)

// goldenPayload builds a deterministic, mildly compressible payload.
func goldenPayload(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((seed*31 + i/7 + i*i%13) % 251)
	}
	return p
}

// goldenExtents is the shared write history: three sequential extents,
// then an overwrite of the middle one — so last-writer-wins resolution
// is part of what the ratchet locks down.
func goldenExtents() []struct {
	off  int64
	data []byte
} {
	return []struct {
		off  int64
		data []byte
	}{
		ext(0, goldenPayload(300, 1)),
		ext(300, goldenPayload(300, 2)),
		ext(600, goldenPayload(200, 3)),
		ext(300, goldenPayload(300, 4)), // overwrites extent 2
	}
}

// goldenContainer encodes the golden history as one container, with a
// per-frame format version chosen by verAt (frame index -> version).
func goldenContainer(t *testing.T, c Codec, verAt func(i int) uint8) []byte {
	t.Helper()
	var box []byte
	for i, e := range goldenExtents() {
		var err error
		box, _, err = EncodeFrameVersion(c, verAt(i), uint64(i), e.off, e.data, box)
		if err != nil {
			t.Fatal(err)
		}
	}
	return box
}

// pagedExtents is a write history whose extents hold full pages, flat and
// not, so each of its deflate frames is paged: a flat page between two
// deflated ones, a flat page first with a partial page behind, and an
// overwrite that ends in a flat page.
func pagedExtents() []struct {
	off  int64
	data []byte
} {
	return []struct {
		off  int64
		data []byte
	}{
		ext(0, pages("TRZ", 1)),
		ext(3*pageSize, append(pages("RT", 2), goldenPayload(700, 5)...)),
		ext(pageSize, pages("ZR", 3)),
	}
}

// frozenStoredFixture is a v2 deflate container the encoder wrote before
// payloads were paged: each frame one DEFLATE stream, its flat pages
// spliced in as stored blocks. No encoder writes that layout any more,
// but compaction copies payloads verbatim, so such containers last, and
// -update never rewrites this one. Frame i, at the offset where frame
// i-1 ends, holds pages(kinds, i+1) followed by incompressible(tail, i+1)
// for each row of frozenStoredFrames: a flat run first and last, a flat
// run behind a Flush (which took over the Flush's sync marker), a flat
// run longer than 64 KiB, and zero and text runs.
const frozenStoredFixture = "deflate-stored-v2.crfc"

var frozenStoredFrames = []struct {
	kinds string
	tail  int
}{
	{"RTZR", 0},
	{"Z" + strings.Repeat("R", 17) + "T", 0},
	{"TRTR", 0},
	{"RTT", 1000},
	{"TTRZ", 0},
	{"TR", 0},
}

// frozenStoredContent is the logical content of the frozen fixture.
func frozenStoredContent() []byte {
	var content []byte
	for i, f := range frozenStoredFrames {
		content = append(content, pages(f.kinds, int64(i+1))...)
		content = append(content, incompressible(f.tail, int64(i+1))...)
	}
	return content
}

// frozenDeflateFixtures are the deflate containers (and the bit-rot
// variant derived from one) that the stdlib level-6 writer encoded, before
// deflate streams were written by encoder.go. Today's encoder writes other
// bytes for them, so -update never rewrites them: they prove that
// containers the old writer left behind keep reading, scrubbing and
// compacting. deflate.crfc and deflate-v2.crfc hold the golden history in
// v1 and v2; deflate-mixed.crfc has its first two frames v1, a v1
// container a v2 writer appended to; deflate-compacted.crfc is what
// compacting either gives. The torn files are deflate.crfc and
// deflate-v2.crfc plus half a fifth frame, what a power cut mid-append
// leaves. deflate-paged-v2.crfc holds pagedExtents, and
// deflate-v2-bitrot.crfc is corruptFixtures' flip of deflate-v2.crfc.
var frozenDeflateFixtures = []string{
	goldenDir + "/deflate.crfc", goldenDir + "/deflate-v2.crfc", goldenDir + "/deflate-mixed.crfc",
	goldenDir + "/deflate-compacted.crfc", goldenDir + "/deflate-torn.crfc",
	goldenDir + "/deflate-v2-torn.crfc", goldenDir + "/deflate-paged-v2.crfc",
	corruptDir + "/deflate-v2-bitrot.crfc",
}

// frozenFixtures reads the frozen deflate fixtures, by file name.
func frozenFixtures(t *testing.T) map[string][]byte {
	t.Helper()
	fix := map[string][]byte{}
	for _, path := range frozenDeflateFixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fix[filepath.Base(path)] = data
	}
	return fix
}

func allV1(int) uint8 { return Version1 }
func allV2(int) uint8 { return Version2 }

// replayFrames decodes frames in sequence order onto a logical image.
func replayFrames(t *testing.T, r *bytes.Reader, frames []FrameInfo) []byte {
	t.Helper()
	ordered := append([]FrameInfo(nil), frames...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Header.Seq < ordered[j].Header.Seq })
	var logical int64
	for _, fr := range ordered {
		if end := fr.Header.Off + int64(fr.Header.RawLen); end > logical {
			logical = end
		}
	}
	img := make([]byte, logical)
	for _, fr := range ordered {
		if fr.Header.RawLen == 0 {
			continue
		}
		enc := make([]byte, fr.Header.EncLen)
		if _, err := r.ReadAt(enc, fr.Pos+HeaderSize); err != nil {
			t.Fatal(err)
		}
		raw, err := DecodeFrame(fr.Header, enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		copy(img[fr.Header.Off:], raw)
	}
	return img
}

func wantContent() []byte {
	img := make([]byte, 800)
	for _, e := range goldenExtents() {
		copy(img[e.off:], e.data)
	}
	return img
}

// goldenFixtures generates every fixture but the frozen ones.
func goldenFixtures(t *testing.T) map[string][]byte {
	t.Helper()
	raw := goldenContainer(t, Raw(), allV1)
	fix := map[string][]byte{
		"raw.crfc":    raw,
		"raw-v2.crfc": goldenContainer(t, Raw(), allV2),
		// The history as today's encoder writes it.
		"deflate-own-v2.crfc": goldenContainer(t, Deflate(), allV2),
	}
	// Compacted variant: the minimal equivalent container (dead overwritten
	// frame dropped, sequences renumbered) — the ratchet for the compaction
	// subsystem's output format. Compaction upgrades v1 input to v2 output,
	// so the fixture is v2 and compacting either source must reproduce it.
	frames, intact, serr := ScanPrefix(bytes.NewReader(raw), int64(len(raw)))
	if serr != nil || intact != int64(len(raw)) {
		t.Fatalf("golden raw container does not scan: %v", serr)
	}
	compacted, _, _, err := CompactContainer(bytes.NewReader(raw), frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	fix["raw-compacted.crfc"] = compacted
	var paged []byte
	for i, e := range pagedExtents() {
		if paged, _, err = EncodeFrame(Deflate(), uint64(i), e.off, e.data, paged); err != nil {
			t.Fatal(err)
		}
	}
	fix["deflate-own-paged-v2.crfc"] = paged
	fix["content.want"] = wantContent()
	return fix
}

// corruptFixtures derives the checked-in bit-rot variants the fsck CI
// job and the regression tests consume: a golden container with one
// payload byte flipped such that decode-based (v1) verification still
// PASSES — the recorded detection gap — while the v2 CRC32-C fails.
// Raw payloads pass v1 trivially (any contents decode); for deflate the
// flip position is searched deterministically for a stream that still
// inflates to the declared length.
func corruptFixtures(t *testing.T, golden map[string][]byte) map[string][]byte {
	t.Helper()
	flipSilent := func(name string) []byte {
		box := bytes.Clone(golden[name])
		if box == nil {
			t.Fatalf("no golden fixture %s", name)
		}
		frames, intact, err := ScanPrefix(bytes.NewReader(box), int64(len(box)))
		if err != nil || intact != int64(len(box)) {
			t.Fatalf("%s does not scan: %v", name, err)
		}
		for _, fr := range frames {
			h1 := fr.Header
			h1.Version, h1.Checksum = Version1, 0
			orig, err := DecodeFrame(h1, box[fr.Pos+HeaderSize:fr.End()], nil)
			if err != nil {
				t.Fatal(err)
			}
			for off := fr.Pos + HeaderSize; off < fr.End(); off++ {
				box[off] ^= 0x01
				got, err := DecodeFrame(h1, box[fr.Pos+HeaderSize:fr.End()], nil)
				if err == nil && !bytes.Equal(got, orig) {
					return box // decodes cleanly under v1, but to rotten bytes
				}
				box[off] ^= 0x01
			}
		}
		t.Fatalf("%s: no silent-under-v1 payload flip exists", name)
		return nil
	}
	return map[string][]byte{
		"raw-v1-bitrot.crfc":     flipSilent("raw.crfc"),
		"raw-v2-bitrot.crfc":     flipSilent("raw-v2.crfc"),
		"deflate-v2-bitrot.crfc": flipSilent("deflate-v2.crfc"),
	}
}

func TestGoldenContainers(t *testing.T) {
	golden, frozen := goldenFixtures(t), frozenFixtures(t)
	sources := maps.Clone(golden) // what the bit-rot variants derive from
	maps.Copy(sources, frozen)
	if *updateGolden {
		corrupt := corruptFixtures(t, sources)
		for name := range frozen {
			delete(corrupt, name)
		}
		for dir, set := range map[string]map[string][]byte{
			goldenDir:  golden,
			corruptDir: corrupt,
		} {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range set {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "content.want"))
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update to generate): %v", err)
	}
	// The on-disk fixtures must match the in-memory generation exactly:
	// the raw v1 fixtures prove the legacy encode path is frozen, the
	// others pin the current format and encoder.
	for name, data := range golden {
		onDisk, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, data) {
			t.Fatalf("%s: checked-in fixture differs from regenerated bytes", name)
		}
	}
	type intactCase struct {
		name              string
		verified, skipped int
	}
	for _, tc := range []intactCase{
		{"raw.crfc", 0, 4},
		{"deflate.crfc", 0, 4},
		{"raw-v2.crfc", 4, 0},
		{"deflate-v2.crfc", 4, 0},
		{"deflate-mixed.crfc", 2, 2},
		{"deflate-own-v2.crfc", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			box, err := os.ReadFile(filepath.Join(goldenDir, tc.name))
			if err != nil {
				t.Fatal(err)
			}
			_, rep := readsWhole(t, box, want)
			// Salvage's checksum accounting reflects each frame's format
			// version.
			if rep.ChecksumVerified != tc.verified || rep.ChecksumSkipped != tc.skipped || rep.ChecksumFailures != 0 {
				t.Fatalf("salvage checksum counts %d/%d/%d, want %d verified, %d skipped",
					rep.ChecksumVerified, rep.ChecksumSkipped, rep.ChecksumFailures, tc.verified, tc.skipped)
			}
		})
	}
	for _, name := range []string{"raw-compacted.crfc", "deflate-compacted.crfc"} {
		t.Run(name, func(t *testing.T) {
			base := name[:len(name)-len("-compacted.crfc")]
			want, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatal(err)
			}
			// Compacting the v1 source and the v2 source must both
			// reproduce the same (v2) fixture: payload bytes are copied
			// verbatim and v1 headers upgrade to exactly the checksummed
			// headers the v2 writer emits.
			for src, wantUpgraded := range map[string]int{base + ".crfc": 3, base + "-v2.crfc": 0} {
				box, err := os.ReadFile(filepath.Join(goldenDir, src))
				if err != nil {
					t.Fatal(err)
				}
				r := bytes.NewReader(box)
				frames, intact, serr := ScanPrefix(r, int64(len(box)))
				if serr != nil || intact != int64(len(box)) {
					t.Fatalf("scan %s: %v", src, serr)
				}
				got, idx, st, err := CompactContainer(r, frames, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("compacting %s no longer reproduces the golden compacted fixture", src)
				}
				if st.FramesDropped != 1 {
					t.Fatalf("dropped %d frames, the golden history has exactly 1 dead frame", st.FramesDropped)
				}
				if st.FramesUpgraded != wantUpgraded {
					t.Fatalf("compacting %s upgraded %d frames, want %d", src, st.FramesUpgraded, wantUpgraded)
				}
				for _, fr := range idx {
					if fr.Header.Version != Version2 {
						t.Fatalf("compacted output still carries a v%d frame at %d", fr.Header.Version, fr.Pos)
					}
				}
				// The compacted fixture itself replays the golden content and
				// re-compacts to itself (idempotence ratchet).
				content, err := os.ReadFile(filepath.Join(goldenDir, "content.want"))
				if err != nil {
					t.Fatal(err)
				}
				if replay := replayFrames(t, bytes.NewReader(got), idx); !bytes.Equal(replay, content) {
					t.Fatal("golden compacted fixture replays different content")
				}
				again, _, _, err := CompactContainer(bytes.NewReader(got), idx, nil)
				if err != nil || !bytes.Equal(again, got) {
					t.Fatalf("golden compacted fixture is not a compaction fixed point (err=%v)", err)
				}
			}
		})
	}
	for _, name := range []string{"deflate-torn.crfc", "deflate-v2-torn.crfc"} {
		t.Run(name, func(t *testing.T) {
			box, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatal(err)
			}
			r := bytes.NewReader(box)
			if _, _, stopErr := ScanPrefix(r, int64(len(box))); stopErr == nil {
				t.Fatal("strict scan accepted the torn fixture")
			}
			frames, rep, err := Salvage(r, int64(len(box)))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clean() || len(frames) != 4 {
				t.Fatalf("salvage kept %d frames (report %+v), want the 4 intact ones", len(frames), rep)
			}
			// A torn tail is structural damage, not bit rot: it must never
			// be misreported as a checksum failure.
			if rep.ChecksumFailures != 0 {
				t.Fatalf("torn tail misclassified as %d checksum failures", rep.ChecksumFailures)
			}
			if got := replayFrames(t, r, frames); !bytes.Equal(got, want) {
				t.Fatal("salvaged torn fixture differs from golden content")
			}
		})
	}
	for _, name := range []string{"deflate-paged-v2.crfc", "deflate-own-paged-v2.crfc"} {
		t.Run(name, func(t *testing.T) { pagedReadsWhole(t, name) })
	}
	t.Run("corrupt-fixtures", func(t *testing.T) {
		// The checked-in bit-rot variants stay derivable from the golden
		// set, and their verification verdicts are pinned: v1 raw bit rot
		// passes (the recorded detection gap), v2 bit rot fails as
		// ErrChecksum.
		for name, data := range corruptFixtures(t, sources) {
			onDisk, err := os.ReadFile(filepath.Join(corruptDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, data) {
				t.Fatalf("%s: checked-in corrupt fixture differs from regenerated bytes", name)
			}
			_, rep, err := Salvage(bytes.NewReader(onDisk), int64(len(onDisk)))
			if err != nil {
				t.Fatal(err)
			}
			switch name {
			case "raw-v1-bitrot.crfc":
				if !rep.Clean() || rep.ChecksumFailures != 0 {
					t.Fatalf("%s: v1 verification unexpectedly caught raw bit rot: %+v", name, rep)
				}
			default:
				if rep.Clean() || rep.ChecksumFailures != 1 {
					t.Fatalf("%s: v2 bit rot not caught as a checksum failure: %+v", name, rep)
				}
			}
		}
	})
}

// pagedReadsWhole checks that the fixture name holds pagedExtents as paged
// deflate payloads, each with a verified checksum.
func pagedReadsWhole(t *testing.T, name string) {
	box, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var content []byte
	for _, e := range pagedExtents() {
		if end := e.off + int64(len(e.data)); end > int64(len(content)) {
			content = append(content, make([]byte, end-int64(len(content)))...)
		}
		copy(content[e.off:], e.data)
	}
	frames, rep := readsWhole(t, box, content)
	for _, fr := range frames {
		if fr.Header.Codec != DeflateID || box[fr.Pos+HeaderSize] != pagedTag {
			t.Fatalf("frame at %d is not a paged deflate payload", fr.Pos)
		}
	}
	if rep.ChecksumVerified != len(frames) {
		t.Fatalf("salvage verified %d of %d checksums", rep.ChecksumVerified, len(frames))
	}
}

// readsWhole checks that box reads as content through the strict scanner,
// salvage and compaction, whose output must replay content too, and
// returns its frames and salvage's report.
func readsWhole(t *testing.T, box, content []byte) ([]FrameInfo, SalvageReport) {
	t.Helper()
	r := bytes.NewReader(box)
	frames, intact, stopErr := ScanPrefix(r, int64(len(box)))
	if stopErr != nil || intact != int64(len(box)) {
		t.Fatalf("strict scan: intact=%d err=%v", intact, stopErr)
	}
	if got := replayFrames(t, r, frames); !bytes.Equal(got, content) {
		t.Fatal("strict scan replay differs from the content written")
	}
	sframes, rep, err := Salvage(r, int64(len(box)))
	if err != nil || !rep.Clean() || len(sframes) != len(frames) {
		t.Fatalf("salvage: report=%+v err=%v frames=%d/%d", rep, err, len(sframes), len(frames))
	}
	if got := replayFrames(t, r, sframes); !bytes.Equal(got, content) {
		t.Fatal("salvage replay differs from the content written")
	}
	compacted, idx, _, err := CompactContainer(r, frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayFrames(t, bytes.NewReader(compacted), idx); !bytes.Equal(got, content) {
		t.Fatal("compacted replay differs from the content written")
	}
	return frames, rep
}

// TestFrozenStoredBlockContainer: a container of the stored-block layout
// reads byte-identically through the strict scanner, salvage and
// compaction, and compacts to itself, payloads copied verbatim. (crfsck
// and the compact and core tests scrub and mount it.)
func TestFrozenStoredBlockContainer(t *testing.T) {
	box, err := os.ReadFile(filepath.Join(goldenDir, frozenStoredFixture))
	if err != nil {
		t.Fatal(err)
	}
	content := frozenStoredContent()
	frames, rep := readsWhole(t, box, content)
	if len(frames) != len(frozenStoredFrames) || rep.ChecksumVerified != len(frames) {
		t.Fatalf("%d frames, %d checksums verified; want %d of each", len(frames), rep.ChecksumVerified, len(frozenStoredFrames))
	}
	for _, fr := range frames {
		payload := box[fr.Pos+HeaderSize : fr.End()]
		if fr.Header.Codec != DeflateID || payload[0]&0x06 == 0x06 {
			t.Fatalf("frame at %d is not a plain deflate stream", fr.Pos)
		}
		raw := content[fr.Header.Off : fr.Header.Off+int64(fr.Header.RawLen)]
		if got := inflate(t, payload); !bytes.Equal(got, raw) {
			t.Fatalf("frame at %d: a bare flate reader reads other bytes", fr.Pos)
		}
	}
	compacted, _, st, err := CompactContainer(bytes.NewReader(box), frames, nil)
	if err != nil || !bytes.Equal(compacted, box) || st.FramesDropped != 0 {
		t.Fatalf("compaction changed the container (%d bytes, %+v, %v)", len(compacted), st, err)
	}
}
