package codec

import (
	"bytes"
	"errors"
	"testing"
)

// buildContainer encodes extents into a container, assigning sequence
// numbers in order and placing each extent at the given logical offset.
func buildContainer(t testing.TB, c Codec, extents ...struct {
	off  int64
	data []byte
}) []byte {
	t.Helper()
	var out []byte
	for i, e := range extents {
		var err error
		out, _, err = EncodeFrame(c, uint64(i), e.off, e.data, out)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func ext(off int64, data []byte) struct {
	off  int64
	data []byte
} {
	return struct {
		off  int64
		data []byte
	}{off, data}
}

func TestScanPrefixClean(t *testing.T) {
	for _, c := range []Codec{Raw(), Deflate()} {
		box := buildContainer(t, c,
			ext(0, bytes.Repeat([]byte("aa"), 100)),
			ext(200, bytes.Repeat([]byte("bb"), 50)),
		)
		frames, intact, stopErr := ScanPrefix(bytes.NewReader(box), int64(len(box)))
		if stopErr != nil {
			t.Fatalf("%s: clean scan stopped: %v", c.Name(), stopErr)
		}
		if intact != int64(len(box)) || len(frames) != 2 {
			t.Fatalf("%s: intact=%d frames=%d, want %d/2", c.Name(), intact, len(frames), len(box))
		}
		if frames[1].End() != int64(len(box)) {
			t.Fatalf("%s: last frame ends at %d, want %d", c.Name(), frames[1].End(), len(box))
		}
	}
}

func TestScanPrefixTornCases(t *testing.T) {
	base := buildContainer(t, Raw(),
		ext(0, []byte("first frame payload")),
		ext(19, []byte("second frame payload")),
	)
	frame1End := int64(HeaderSize + len("first frame payload"))
	cases := []struct {
		name       string
		mutate     func([]byte) []byte
		wantFrames int
		wantIntact int64
	}{
		{"garbage tail", func(b []byte) []byte {
			return append(b, []byte("junk that is no frame")...)
		}, 2, int64(len(base))},
		{"torn mid-payload", func(b []byte) []byte {
			return b[:len(b)-5]
		}, 1, frame1End},
		{"torn mid-header", func(b []byte) []byte {
			return b[:frame1End+10]
		}, 1, frame1End},
		{"second header zeroed", func(b []byte) []byte {
			b = bytes.Clone(b)
			for i := frame1End; i < frame1End+4; i++ {
				b[i] = 0
			}
			return b
		}, 1, frame1End},
		{"v1 header behind a v2 frame", func(b []byte) []byte {
			b = bytes.Clone(b)
			b[frame1End+4] = 1
			return b
		}, 1, frame1End},
		{"torn inside first frame", func(b []byte) []byte {
			return b[:HeaderSize+3]
		}, 0, 0},
		{"torn inside first header", func(b []byte) []byte {
			return b[:17]
		}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			box := tc.mutate(bytes.Clone(base))
			frames, intact, stopErr := ScanPrefix(bytes.NewReader(box), int64(len(box)))
			if stopErr == nil {
				t.Fatal("torn container scanned clean")
			}
			if !errors.Is(stopErr, ErrCorrupt) && !errors.Is(stopErr, ErrNotFramed) {
				t.Fatalf("stopErr = %v, want a corruption class", stopErr)
			}
			if len(frames) != tc.wantFrames || intact != tc.wantIntact {
				t.Fatalf("frames=%d intact=%d, want %d/%d", len(frames), intact, tc.wantFrames, tc.wantIntact)
			}
			// Salvage agrees and fills in the report.
			sframes, rep, err := Salvage(bytes.NewReader(box), int64(len(box)))
			if err != nil {
				t.Fatalf("salvage: %v", err)
			}
			if len(sframes) != tc.wantFrames || rep.IntactBytes != tc.wantIntact {
				t.Fatalf("salvage frames=%d intact=%d, want %d/%d",
					len(sframes), rep.IntactBytes, tc.wantFrames, tc.wantIntact)
			}
			if rep.Clean() || rep.Reason == "" {
				t.Fatalf("report = %+v, want torn with reason", rep)
			}
			if rep.IntactBytes+rep.TruncatedBytes != int64(len(box)) {
				t.Fatalf("report bytes %d+%d != %d", rep.IntactBytes, rep.TruncatedBytes, len(box))
			}
		})
	}
}

// TestSalvageVerifiesPayloads: a frame whose header chain is intact but
// whose payload does not decode must end the salvaged prefix — salvage is
// the recovery path and must not hand back undecodable frames.
func TestSalvageVerifiesPayloads(t *testing.T) {
	box := buildContainer(t, Deflate(),
		ext(0, bytes.Repeat([]byte("compress me well "), 50)),
		ext(850, bytes.Repeat([]byte("second extent too "), 50)),
	)
	frames, _, err := ScanPrefix(bytes.NewReader(box), int64(len(box)))
	if err != nil || len(frames) != 2 {
		t.Fatalf("setup scan: %d frames, %v", len(frames), err)
	}
	// Corrupt the middle of the second frame's deflate payload, then
	// append garbage so the strict scan fails and salvage runs.
	bad := bytes.Clone(box)
	mid := frames[1].Pos + HeaderSize + int64(frames[1].Header.EncLen)/2
	for i := mid; i < mid+8; i++ {
		bad[i] ^= 0xFF
	}
	bad = append(bad, "trailing garbage"...)
	kept, rep, err := Salvage(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || rep.IntactBytes != frames[1].Pos {
		t.Fatalf("salvage kept %d frames to byte %d, want 1 frame to byte %d",
			len(kept), rep.IntactBytes, frames[1].Pos)
	}
	// The header-only ScanPrefix, by contrast, keeps both frames: payload
	// verification is salvage-only by design.
	hframes, _, _ := ScanPrefix(bytes.NewReader(bad), int64(len(bad)))
	if len(hframes) != 2 {
		t.Fatalf("header-only scan kept %d frames, want 2", len(hframes))
	}
}

// TestSalvageHeaderShapedJunkTail: a torn tail whose junk happens to
// begin with a parseable frame header declaring an in-bounds payload
// that fails to decode must still salvage (it is the torn-tail shape,
// not a backend failure) — flate's decode errors wrap no sentinel, so
// the classification must not depend on them.
func TestSalvageHeaderShapedJunkTail(t *testing.T) {
	var box []byte
	box, _, err := EncodeFrame(Raw(), 0, 0, []byte("the intact frame"), box)
	if err != nil {
		t.Fatal(err)
	}
	keep := int64(len(box))
	junk := make([]byte, HeaderSize+64)
	PutHeader(junk, Header{Codec: DeflateID, Seq: 1, Off: 16, RawLen: 100, EncLen: 64})
	for i := HeaderSize; i < len(junk); i++ {
		junk[i] = 0xFF // in-bounds payload flate rejects
	}
	box = append(box, junk...)
	frames, rep, err := Salvage(bytes.NewReader(box), int64(len(box)))
	if err != nil {
		t.Fatalf("salvage classified a decode failure as a backend error: %v", err)
	}
	if len(frames) != 1 || rep.IntactBytes != keep {
		t.Fatalf("kept %d frames to byte %d, want 1 to %d", len(frames), rep.IntactBytes, keep)
	}
	if rep.Clean() || rep.Reason == "" {
		t.Fatalf("report = %+v, want a torn-tail reason", rep)
	}
}

// TestSalvagePadFrames: zero-extent pad frames (stamped over failed
// chunk writes) carry undecodable junk payloads by design; salvage must
// keep them and the frames after them.
func TestSalvagePadFrames(t *testing.T) {
	var box []byte
	box, _, err := EncodeFrame(Raw(), 0, 0, []byte("good data"), box)
	if err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, HeaderSize+40)
	PutHeader(pad, Header{Codec: RawID, Seq: 1, Off: 9, RawLen: 0, EncLen: 40})
	for i := HeaderSize; i < len(pad); i++ {
		pad[i] = 0xA5 // junk where the failed frame's payload would be
	}
	box = append(box, pad...)
	box, _, err = EncodeFrame(Raw(), 2, 49, []byte("after the pad"), box)
	if err != nil {
		t.Fatal(err)
	}
	full := int64(len(box))
	box = append(box, "torn!"...)
	frames, rep, err := Salvage(bytes.NewReader(box), int64(len(box)))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 || rep.IntactBytes != full {
		t.Fatalf("salvage kept %d frames to byte %d, want 3 to %d", len(frames), rep.IntactBytes, full)
	}
}

func TestSalvageCountsDroppedFrames(t *testing.T) {
	// prefix frame | 10 junk bytes | two intact frames adrift in the tail.
	var box []byte
	box, _, err := EncodeFrame(Raw(), 0, 0, []byte("kept"), box)
	if err != nil {
		t.Fatal(err)
	}
	keep := int64(len(box))
	box = append(box, "0123456789"...)
	box, _, _ = EncodeFrame(Raw(), 1, 4, []byte("lost one"), box)
	box, _, _ = EncodeFrame(Raw(), 2, 12, []byte("lost two"), box)
	frames, rep, err := Salvage(bytes.NewReader(box), int64(len(box)))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || rep.IntactBytes != keep {
		t.Fatalf("kept %d frames to %d, want 1 to %d", len(frames), rep.IntactBytes, keep)
	}
	if rep.FramesDropped != 2 {
		t.Fatalf("FramesDropped = %d, want 2", rep.FramesDropped)
	}
}

// TestSalvageFirstHeaderValid: a brand-new container torn inside its
// first frame salvages to an empty prefix but is still recognizably a
// container (the parsed header is the evidence), while junk behind the
// magic is not.
func TestSalvageFirstHeaderValid(t *testing.T) {
	box := buildContainer(t, Raw(), ext(0, []byte("never finished payload")))
	torn := box[:HeaderSize+5]
	_, rep, err := Salvage(bytes.NewReader(torn), int64(len(torn)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesKept != 0 || !rep.FirstHeaderValid {
		t.Fatalf("report = %+v, want 0 frames with a valid first header", rep)
	}
	junk := append([]byte("CRFC"), bytes.Repeat([]byte{0xFF}, 60)...)
	_, rep, err = Salvage(bytes.NewReader(junk), int64(len(junk)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesKept != 0 || rep.FirstHeaderValid {
		t.Fatalf("report = %+v, want no container evidence", rep)
	}
}

// TestSalvagePreservesOverwriteOrder: the salvaged prefix keeps frame
// sequence numbers intact, so a stale overwritten extent can never sort
// above the newer frame that shadowed it.
func TestSalvagePreservesOverwriteOrder(t *testing.T) {
	box := buildContainer(t, Raw(),
		ext(0, []byte("old-old-old-old!")),
		ext(0, []byte("new-new-new-new!")),
	)
	box = append(box, "torn tail"...)
	frames, _, err := Salvage(bytes.NewReader(box), int64(len(box)))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("kept %d frames, want 2", len(frames))
	}
	if !(frames[0].Header.Seq < frames[1].Header.Seq) {
		t.Fatalf("sequence order lost: %d then %d", frames[0].Header.Seq, frames[1].Header.Seq)
	}
}
