package codec

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Corruption-injection matrix. The payload checksum exists to close one
// precise gap: decode-based verification proves a payload *decodes to
// the declared length*, not that it holds the bytes that were written — a
// stored-raw payload decodes "successfully" at any contents, and some
// DEFLATE streams survive in-window flips. This file flips every payload
// byte and every header field of the golden write history, raw and
// deflate, and pins the exact verdict on each codec-level decode path
// (direct decode, salvage, compaction). The v1 rows flip the retired v1
// fixtures, which carry no checksum: whatever the flip, no path may read
// a frame of them. The scrub and read/prefetch paths are pinned by the
// twin matrices in internal/compact and internal/core, which funnel
// through the same DecodeFrame.

// corruptPaths runs one corrupted container through the codec-level
// decode paths and reports which detected the damage.
type corruptVerdict struct {
	decode  bool // DecodeFrame of the flipped frame errored
	salvage bool // Salvage stopped short of the full container
	compact bool // CompactContainer refused the rewrite
}

func runPaths(t *testing.T, box []byte, fr FrameInfo) corruptVerdict {
	t.Helper()
	var v corruptVerdict
	_, err := DecodeFrame(fr.Header, box[fr.Pos+HeaderSize:fr.End()], nil)
	v.decode = err != nil
	_, rep, serr := Salvage(bytes.NewReader(box), int64(len(box)))
	if serr != nil {
		t.Fatalf("salvage saw a backend error on in-memory bytes: %v", serr)
	}
	v.salvage = !rep.Clean()
	frames, intact, _ := ScanPrefix(bytes.NewReader(box), int64(len(box)))
	if intact == int64(len(box)) {
		_, _, _, cerr := CompactContainer(bytes.NewReader(box), frames, nil)
		v.compact = cerr != nil
	} else {
		// The flip broke the frame chain itself; compaction never sees
		// the file in this state (open-time salvage runs first).
		v.compact = true
	}
	return v
}

// TestCorruptionMatrixPayloadFlips flips every payload byte of every
// frame and demands that every decode path that touches the frame detects
// 100% of the flips. The v1 rows flip every byte past the first header of
// a v1 fixture, which decode-based verification alone passed for every
// raw flip and ≈ 73 % of deflate ones: the container must stay refused.
func TestCorruptionMatrixPayloadFlips(t *testing.T) {
	for _, c := range []Codec{Raw(), Deflate()} {
		t.Run(c.Name()+"/v1", func(t *testing.T) {
			box, err := os.ReadFile(filepath.Join(v1Dir, c.Name()+".crfc"))
			if err != nil {
				t.Fatal(err)
			}
			for off := HeaderSize; off < len(box); off++ {
				box[off] ^= 0x01
				v1Refused(t, box)
				box[off] ^= 0x01
			}
		})
		name := c.Name() + "/v2"
		t.Run(name, func(t *testing.T) {
			box := goldenContainer(t, c)
			frames, intact, serr := ScanPrefix(bytes.NewReader(box), int64(len(box)))
			if serr != nil || intact != int64(len(box)) {
				t.Fatal(serr)
			}
			lv := Analyze(frames)
			live := map[int64]bool{}
			for _, fr := range lv.Live {
				live[fr.Pos] = true
			}
			// A flip only matters if it changes what the frame decodes
			// to; a flip in non-load-bearing flate bits (padding, dead
			// bits) that decodes to identical bytes is benign and every
			// verifier rightly passes it. A "miss" is a *harmful* flip
			// — decoded output differs from what was written — that a
			// path passed anyway: silent corruption.
			pristine := map[int64][]byte{}
			for _, fr := range frames {
				dec, derr := DecodeFrame(fr.Header, box[fr.Pos+HeaderSize:fr.End()], nil)
				if derr != nil {
					t.Fatal(derr)
				}
				pristine[fr.Pos] = dec
			}
			flips, benign, decMiss, salMiss, cmpMiss := 0, 0, 0, 0, 0
			for _, fr := range frames {
				for off := fr.Pos + HeaderSize; off < fr.End(); off++ {
					box[off] ^= 0x01
					dec, derr := DecodeFrame(fr.Header, box[fr.Pos+HeaderSize:fr.End()], nil)
					if derr == nil && bytes.Equal(dec, pristine[fr.Pos]) {
						benign++
						box[off] ^= 0x01
						continue
					}
					v := runPaths(t, box, fr)
					box[off] ^= 0x01
					flips++
					if !v.decode {
						decMiss++
					}
					if !v.salvage {
						salMiss++
					}
					// Compaction drops dead frames without decoding
					// them; a flip there is discarded, not copied, so
					// only live frames count against the compact path.
					if live[fr.Pos] && !v.compact {
						cmpMiss++
					}
				}
			}
			t.Logf("%s: %d harmful flips (%d benign), missed decode=%d salvage=%d compact=%d",
				name, flips, benign, decMiss, salMiss, cmpMiss)
			if flips == 0 {
				t.Fatal("no harmful flips generated; the matrix proved nothing")
			}
			if decMiss != 0 || salMiss != 0 || cmpMiss != 0 {
				t.Fatalf("every harmful payload flip must be detected; missed decode=%d salvage=%d compact=%d",
					decMiss, salMiss, cmpMiss)
			}
		})
	}
}

// storedBlockFlips returns sampled offsets into a stored-block payload
// that inflates to src: the LEN/NLEN in front of every stored block of
// every flat run (a run longer than 65,535 bytes takes several blocks), a
// few bytes of each run's first page, and the LEN/NLEN of the empty final
// block a payload ending in a flat page closes with. (A header byte's
// padding bits are not sampled: inflaters skip them, so a flip there is
// benign.)
func storedBlockFlips(t *testing.T, payload, src []byte) (lenNlen, data []int) {
	t.Helper()
	for off := 0; off+pageSize <= len(src); off += pageSize {
		if !flatPage(src[off:]) || off > 0 && flatPage(src[off-pageSize:]) {
			continue // not the first page of a flat run
		}
		at := bytes.Index(payload, src[off:off+pageSize])
		if at < 4 {
			t.Fatalf("flat page at %d is not stored in the payload", off)
		}
		data = append(data, at, at+1, at+pageSize/2, at+pageSize-1)
		run := 0
		for end := off; end+pageSize <= len(src) && flatPage(src[end:]); end += pageSize {
			run += pageSize
		}
		for block := at; ; block += maxStored + 5 {
			lenNlen = append(lenNlen, block-4, block-3, block-2, block-1)
			if run -= maxStored; run <= 0 {
				break
			}
		}
	}
	if flatPage(src[len(src)-pageSize:]) {
		for i := len(payload) - 4; i < len(payload); i++ {
			lenNlen = append(lenNlen, i)
		}
	}
	return lenNlen, data
}

// maxStored is the most one DEFLATE stored block carries.
const maxStored = 65535

// flipVerdict flips bit of box at `at` and checks that DecodeFrame of the
// frame fr fails under want — ErrChecksum exactly when want is, any
// ErrCorrupt when want is ErrCorrupt and either is, ErrCorrupt but never
// ErrChecksum otherwise — handing back no bytes, and that salvage and
// compaction refuse the container too. It restores the bit.
func flipVerdict(t *testing.T, box []byte, fr FrameInfo, at int, bit byte, want error, either bool) {
	t.Helper()
	box[at] ^= bit
	defer func() { box[at] ^= bit }()
	out, err := DecodeFrame(fr.Header, box[fr.Pos+HeaderSize:fr.End()], nil)
	if !errors.Is(err, want) || !either && errors.Is(err, ErrChecksum) != (want == ErrChecksum) || out != nil {
		t.Fatalf("flip %#x at %d: %d bytes, %v; want %v", bit, at, len(out), err, want)
	}
	if v := runPaths(t, box, fr); !v.decode || !v.salvage || !v.compact {
		t.Fatalf("flip %#x at %d passed a path: %+v", bit, at, v)
	}
}

// TestCorruptionMatrixStoredBlocks: the frames of the frozen stored-block
// fixture carry their flat pages as DEFLATE stored blocks, which inflate
// at any contents — the same exposure as a raw payload. A flip in a
// block's LEN/NLEN (the final empty block's included) must fail the
// stream itself, as ErrCorrupt; a flip in its data must fail the CRC, as
// ErrChecksum. Either way every codec-level path — decode, salvage,
// compaction — refuses the frame and none of them hands back a byte.
func TestCorruptionMatrixStoredBlocks(t *testing.T) {
	box, err := os.ReadFile(filepath.Join(goldenDir, frozenStoredFixture))
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := ScanPrefix(bytes.NewReader(box), int64(len(box)))
	if err != nil {
		t.Fatal(err)
	}
	content, nLen, nData := frozenStoredContent(), 0, 0
	for _, fr := range frames {
		base := int(fr.Pos + HeaderSize)
		src := content[fr.Header.Off : fr.Header.Off+int64(fr.Header.RawLen)]
		lenNlen, data := storedBlockFlips(t, box[base:fr.End()], src)
		for _, set := range []struct {
			at   []int
			want error
		}{{lenNlen, ErrCorrupt}, {data, ErrChecksum}} {
			for _, at := range set.at {
				for _, bit := range []byte{0x01, 0x80} {
					flipVerdict(t, box, fr, base+at, bit, set.want, false)
				}
			}
		}
		nLen, nData = nLen+len(lenNlen), nData+len(data)
	}
	t.Logf("%d frames: %d LEN/NLEN and %d data bytes flipped, each two ways", len(frames), nLen, nData)
}

// TestCorruptionMatrixPagedPayload: a paged payload's flat pages inflate
// at any contents as stored blocks did, so a flip in one must fail the
// CRC, as ErrChecksum. A flip of any bit of the tag or the bitmap, or of
// any byte of the stream, breaks the payload's shape or its stream: it
// must fail as ErrCorrupt (ErrChecksum when what decodes is the right
// length but the wrong bytes), unless it decodes to exactly the bytes
// written — a flip in the stream's padding bits. Either way every
// codec-level path refuses the frame and none hands back a byte.
func TestCorruptionMatrixPagedPayload(t *testing.T) {
	src := append(pages("RTZRRTTR", 8), "tail page"...)
	box, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil || h.Codec != DeflateID || box[HeaderSize] != pagedTag {
		t.Fatalf("frame: codec %d, %v", h.Codec, err)
	}
	fr := FrameInfo{Header: h}
	// The tag, then one bitmap byte for each eight of the nine pages.
	const stored = HeaderSize + 1 + 2
	flat, benign := 0, 0
	for off := 0; off+pageSize <= len(src); off += pageSize {
		if !flatPage(src[off:]) {
			continue
		}
		at := stored + flat*pageSize
		if !bytes.Equal(box[at:at+pageSize], src[off:off+pageSize]) {
			t.Fatalf("flat page at %d is not verbatim at %d", off, at)
		}
		for _, i := range []int{at, at + 1, at + pageSize/2, at + pageSize - 1} {
			for _, bit := range []byte{0x01, 0x80} {
				flipVerdict(t, box, fr, i, bit, ErrChecksum, false)
			}
		}
		flat++
	}
	for at := HeaderSize; at < stored; at++ { // the tag and the bitmap, every bit
		for bit := 0; bit < 8; bit++ {
			flipVerdict(t, box, fr, at, 1<<bit, ErrCorrupt, true)
		}
	}
	for at := stored + flat*pageSize; at < len(box); at++ { // the stream
		box[at] ^= 0x01
		out, err := DecodeFrame(h, box[HeaderSize:], nil)
		box[at] ^= 0x01
		if err == nil && bytes.Equal(out, src) {
			benign++
			continue
		}
		flipVerdict(t, box, fr, at, 0x01, ErrCorrupt, true)
	}
	t.Logf("%d flat pages sampled, %d tag and bitmap bits, %d stream bytes flipped (%d benign)",
		flat, 8*(stored-HeaderSize), len(box)-stored-flat*pageSize, benign)
	if flat != 4 {
		t.Fatalf("%d flat pages, want the 4 random ones", flat)
	}
}

// TestCorruptionMatrixHeaderFields flips the low bit of every header
// field of the first frame and pins the verdict: structural fields
// (magic, version, lengths) are caught by parsing or decode; the checksum
// field is caught by the CRC itself; and in-bounds flips of seq,
// reserved, and off are the documented residual gap — the CRC covers the
// payload, not the header. In a v1 fixture, every flip leaves the
// container unread: a flip of the magic or the version byte makes it no
// container at all, any other flip leaves it refused as ErrFrameVersion.
func TestCorruptionMatrixHeaderFields(t *testing.T) {
	type verdict int
	const (
		detected verdict = iota // salvage must stop short (and flag the frame)
		silent                  // documented residual: container still verifies clean
		unread                  // v1: salvage keeps no frame
	)
	cases := []struct {
		field   string
		byteOff int64
		want    verdict
	}{
		{"magic", 0, detected},
		{"version", 4, detected},
		{"codec", 5, detected},
		{"reserved", 6, silent},
		{"seq", 8, silent},
		// Byte 12 is the payload CRC (any flip is a mismatch); in v1 it
		// was the high half of the sequence number.
		{"seq-high/checksum", 12, detected},
		{"off", 16, silent},
		{"rawlen", 24, detected},
		// An enclen flip desyncs the frame chain; with deflate the flipped
		// frame itself may still inflate (a stream short one byte can
		// carry all its output), so detection lands on the *next* header,
		// not necessarily at byte 0.
		{"enclen", 28, detected},
	}
	for _, c := range []Codec{Raw(), Deflate()} {
		v1, err := os.ReadFile(filepath.Join(v1Dir, c.Name()+".crfc"))
		if err != nil {
			t.Fatal(err)
		}
		for ver, box := range map[int][]byte{1: v1, 2: goldenContainer(t, c)} {
			for _, tc := range cases {
				name := fmt.Sprintf("%s/v%d/%s", c.Name(), ver, tc.field)
				t.Run(name, func(t *testing.T) {
					want := tc.want
					if ver == 1 {
						want = unread
					}
					mut := bytes.Clone(box)
					mut[tc.byteOff] ^= 0x01
					frames, rep, err := Salvage(bytes.NewReader(mut), int64(len(mut)))
					if want == unread {
						if structural := tc.byteOff < 5; len(frames) != 0 || structural == errors.Is(err, ErrFrameVersion) {
							t.Fatalf("flip of %s: salvage kept %d frames, %v", tc.field, len(frames), err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					switch want {
					case detected:
						if rep.Clean() {
							t.Fatalf("flip of %s went undetected: %+v", tc.field, rep)
						}
						if rep.IntactBytes >= int64(len(mut)) {
							t.Fatalf("flip of %s detected, yet salvage kept the whole container", tc.field)
						}
					case silent:
						if !rep.Clean() {
							t.Fatalf("in-bounds flip of %s was detected (%+v); the residual-gap doc is stale", tc.field, rep)
						}
					}
					// The checksum-field case must be attributed to the CRC
					// specifically, not to a structural accident.
					if tc.field == "seq-high/checksum" {
						h := bytes.Clone(mut[:HeaderSize])
						ph, perr := ParseHeader(h)
						if perr != nil {
							t.Fatal(perr)
						}
						if _, derr := DecodeFrame(ph, mut[HeaderSize:HeaderSize+int64(ph.EncLen)], nil); !errors.Is(derr, ErrChecksum) {
							t.Fatalf("checksum-field flip: %v, want ErrChecksum", derr)
						}
						if rep.ChecksumFailures != 1 {
							t.Fatalf("checksum-field flip: report %+v, want 1 checksum failure", rep)
						}
					}
				})
			}
		}
	}
}

// TestSalvagePreservesChecksumIdentity pins the error-classification fix:
// a CRC mismatch mid-container must surface from the salvage scan as
// ErrChecksum (distinguishable from a structural tear) and the intact
// frames past it must be counted, never silently discarded.
func TestSalvagePreservesChecksumIdentity(t *testing.T) {
	box := goldenContainer(t, Raw())
	frames, _, err := ScanPrefix(bytes.NewReader(box), int64(len(box)))
	if err != nil {
		t.Fatal(err)
	}
	// Rot a payload byte of the second frame: frame 0 stays intact,
	// frames 2 and 3 are intact-but-unreachable past the failure.
	box[frames[1].Pos+HeaderSize] ^= 0xff
	kept, rep, err := Salvage(bytes.NewReader(box), int64(len(box)))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || rep.IntactBytes != frames[1].Pos {
		t.Fatalf("salvage kept %d frames to %d bytes, want the 1-frame prefix", len(kept), rep.IntactBytes)
	}
	if rep.ChecksumFailures != 1 {
		t.Fatalf("report %+v, want exactly 1 checksum failure", rep)
	}
	// The resync count covers the rotted frame plus the 2 intact frames
	// past it — the later frames show up in the report, never silently.
	if rep.FramesDropped != 3 {
		t.Fatalf("dropped %d frames, want 3 (rotted + 2 intact past it)", rep.FramesDropped)
	}
	// The scan's stop error itself carries the ErrChecksum identity.
	_, _, _, stopErr := scanPrefix(bytes.NewReader(box), int64(len(box)), true)
	if !errors.Is(stopErr, ErrChecksum) || !errors.Is(stopErr, ErrCorrupt) {
		t.Fatalf("stop error %v must wrap ErrChecksum and ErrCorrupt", stopErr)
	}
}
