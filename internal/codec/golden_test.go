package codec

import (
	"bytes"
	"errors"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Golden container fixtures: small checked-in containers (raw and
// deflate, multi-frame, with an overwrite history; plus torn variants)
// that both the strict scanner and the salvage path must keep reading
// byte-identically — a format-compatibility ratchet. The deflate fixtures
// the stdlib writer once encoded are frozen (frozenDeflateFixtures); the
// ones -update writes pin what the encoder writes today. Regenerate with
// `go test ./internal/codec -run TestGolden -update` only for a
// deliberate, documented format or encoder change. The containers in
// testdata/v1 were written in the retired v1 format, and every reader
// must refuse them (ErrFrameVersion); nothing regenerates them.

var updateGolden = flag.Bool("update", false, "rewrite golden container fixtures")

const (
	goldenDir  = "testdata/golden"
	corruptDir = "testdata/corrupt"
	v1Dir      = "testdata/v1"
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

// goldenContainer encodes the golden history as one container.
func goldenContainer(t *testing.T, c Codec) []byte {
	t.Helper()
	var box []byte
	for i, e := range goldenExtents() {
		var err error
		box, _, err = EncodeFrame(c, uint64(i), e.off, e.data, box)
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
// compacting. deflate-v2.crfc holds the golden history;
// deflate-compacted.crfc is what compacting it gives, and
// deflate-v2-torn.crfc is it plus half a fifth frame, what a power cut
// mid-append leaves. deflate-paged-v2.crfc holds pagedExtents, and
// deflate-v2-bitrot.crfc is corruptFixtures' flip of deflate-v2.crfc.
var frozenDeflateFixtures = []string{
	goldenDir + "/deflate-v2.crfc", goldenDir + "/deflate-compacted.crfc",
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
	raw := goldenContainer(t, Raw())
	fix := map[string][]byte{
		"raw-v2.crfc": raw,
		// The history as today's encoder writes it.
		"deflate-own-v2.crfc": goldenContainer(t, Deflate()),
	}
	// Compacted variant: the minimal equivalent container (dead overwritten
	// frame dropped, sequences renumbered) — the ratchet for the compaction
	// subsystem's output format.
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
// payload byte flipped such that the payload still decodes to the
// declared length, only to other bytes — what a reader without payload
// checksums would serve — while the CRC32-C fails. Raw payloads decode at
// any contents; for deflate the flip position is searched
// deterministically for a stream that still inflates to the declared
// length.
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
			c, err := ByID(fr.Header.Codec)
			if err != nil {
				t.Fatal(err)
			}
			// Decode with the checksum left unchecked.
			decode := func() ([]byte, error) {
				out, _, err := c.decodeSum(nil, box[fr.Pos+HeaderSize:fr.End()], int64(fr.Header.RawLen))
				return out, err
			}
			orig, err := decode()
			if err != nil {
				t.Fatal(err)
			}
			for off := fr.Pos + HeaderSize; off < fr.End(); off++ {
				box[off] ^= 0x01
				if got, err := decode(); err == nil && !bytes.Equal(got, orig) {
					return box // decodes cleanly, but to rotten bytes
				}
				box[off] ^= 0x01
			}
		}
		t.Fatalf("%s: no payload flip decodes cleanly", name)
		return nil
	}
	return map[string][]byte{
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
	// they pin the format and the encoder.
	for name, data := range golden {
		onDisk, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, data) {
			t.Fatalf("%s: checked-in fixture differs from regenerated bytes", name)
		}
	}
	for _, name := range []string{"raw-v2.crfc", "deflate-v2.crfc", "deflate-own-v2.crfc"} {
		t.Run(name, func(t *testing.T) {
			box, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if _, rep := readsWhole(t, box, want); rep.ChecksumVerified != 4 || rep.ChecksumFailures != 0 {
				t.Fatalf("salvage checksum counts %d/%d, want 4 verified", rep.ChecksumVerified, rep.ChecksumFailures)
			}
		})
	}
	for _, name := range []string{"raw-compacted.crfc", "deflate-compacted.crfc"} {
		t.Run(name, func(t *testing.T) {
			src := name[:len(name)-len("-compacted.crfc")] + "-v2.crfc"
			compacted, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatal(err)
			}
			// Compacting the source reproduces the fixture: payload bytes
			// are copied verbatim and sequences renumbered densely.
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
			if !bytes.Equal(got, compacted) {
				t.Fatalf("compacting %s no longer reproduces the golden compacted fixture", src)
			}
			if st.FramesDropped != 1 || st.ChecksumVerified != 3 {
				t.Fatalf("dropped %d frames, verified %d; the golden history has exactly 1 dead frame and 3 live",
					st.FramesDropped, st.ChecksumVerified)
			}
			// The compacted fixture itself replays the golden content and
			// re-compacts to itself (idempotence ratchet).
			if replay := replayFrames(t, bytes.NewReader(got), idx); !bytes.Equal(replay, want) {
				t.Fatal("golden compacted fixture replays different content")
			}
			again, _, _, err := CompactContainer(bytes.NewReader(got), idx, nil)
			if err != nil || !bytes.Equal(again, got) {
				t.Fatalf("golden compacted fixture is not a compaction fixed point (err=%v)", err)
			}
		})
	}
	t.Run("deflate-v2-torn.crfc", func(t *testing.T) {
		box, err := os.ReadFile(filepath.Join(goldenDir, "deflate-v2-torn.crfc"))
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
	for _, name := range []string{"deflate-paged-v2.crfc", "deflate-own-paged-v2.crfc"} {
		t.Run(name, func(t *testing.T) { pagedReadsWhole(t, name) })
	}
	// The retired v1 containers: each is refused whole, before any payload
	// is read, and never as damage.
	v1, err := os.ReadDir(v1Dir)
	if err != nil || len(v1) != 5 {
		t.Fatalf("%s holds %d containers, want 5 (%v)", v1Dir, len(v1), err)
	}
	for _, e := range v1 {
		t.Run(e.Name(), func(t *testing.T) {
			box, err := os.ReadFile(filepath.Join(v1Dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !Sniff(box) || box[4] != 1 {
				t.Fatal("not a v1 container")
			}
			v1Refused(t, box)
		})
	}
	t.Run("corrupt-fixtures", func(t *testing.T) {
		// The checked-in bit-rot variants stay derivable from the golden
		// set, and each fails as ErrChecksum.
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
			if rep.Clean() || rep.ChecksumFailures != 1 {
				t.Fatalf("%s: bit rot not caught as a checksum failure: %+v", name, rep)
			}
		}
	})
}

// v1Refused checks that the strict scanner and salvage refuse box, a
// container that starts with a v1 header, as ErrFrameVersion — not as
// damage, which salvage would cut to a prefix — and keep no frame.
func v1Refused(t *testing.T, box []byte) {
	t.Helper()
	r := bytes.NewReader(box)
	frames, intact, stopErr := ScanPrefix(r, int64(len(box)))
	if !errors.Is(stopErr, ErrFrameVersion) || errors.Is(stopErr, ErrCorrupt) || len(frames) != 0 || intact != 0 {
		t.Fatalf("strict scan: %d frames, intact=%d, %v; want ErrFrameVersion", len(frames), intact, stopErr)
	}
	if frames, _, err := Salvage(r, int64(len(box))); !errors.Is(err, ErrFrameVersion) || len(frames) != 0 {
		t.Fatalf("salvage: %d frames, %v; want ErrFrameVersion", len(frames), err)
	}
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
