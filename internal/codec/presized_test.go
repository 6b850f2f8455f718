package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"math"
	"testing"
)

// badFrame is a deflate frame whose stream disagrees with its header in
// one way; want is the class DecodeFrame must report it under.
type badFrame struct {
	name    string
	h       Header
	payload []byte
	want    error
}

// badDeflateFrames builds one of each from a healthy 8 KiB v2 frame.
func badDeflateFrames(t testing.TB) []badFrame {
	t.Helper()
	frame, h, err := EncodeFrame(Deflate(), 0, 0, compressible(8<<10, 5), nil)
	if err != nil || h.Codec != DeflateID {
		t.Fatalf("healthy frame: codec %d, %v", h.Codec, err)
	}
	payload := frame[HeaderSize:]
	longer, shorter, cut, rot, absurd := h, h, h, h, h
	longer.RawLen -= 100  // the stream runs past the declared size
	shorter.RawLen += 100 // the stream ends before it
	cut.EncLen /= 2       // the stream stops mid-block
	rot.Checksum ^= 1     // the stream is whole, its bytes are not the header's
	absurd.RawLen = math.MaxUint32
	return append([]badFrame{
		{"longer", longer, payload, ErrCorrupt},
		{"shorter", shorter, payload, ErrCorrupt},
		{"truncated", cut, payload[:cut.EncLen], ErrCorrupt},
		{"crc", rot, payload, ErrChecksum},
		{"impossible", absurd, payload, ErrCorrupt},
	}, badPagedFrames(t)...)
}

// badPagedFrames builds one paged payload of each shape Encode never
// writes, every one under a header whose length and CRC are those of the
// bytes it was built from, so only the shape can fail it.
func badPagedFrames(t testing.TB) []badFrame {
	t.Helper()
	src := append(pages("TRT", 1), "tail"...) // page 1 flat, page 3 short
	frame, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil || h.Codec != DeflateID || frame[HeaderSize] != pagedTag || frame[HeaderSize+1] != 0x02 {
		t.Fatalf("healthy paged frame: codec %d, %v", h.Codec, err)
	}
	head := frame[HeaderSize : HeaderSize+2+pageSize] // tag, bitmap, the flat page
	deflated := append(bytes.Clone(src[:pageSize]), src[2*pageSize:]...)
	paged := func(p []byte) badFrame {
		return badFrame{payload: p, h: Header{Codec: DeflateID,
			Checksum: h.Checksum, RawLen: h.RawLen, EncLen: uint32(len(p))}, want: ErrCorrupt}
	}
	deflate := func(p []byte) []byte { // level-6 DEFLATE of p, as Encode writes it
		var b bytes.Buffer
		fw, err := flate.NewWriter(&b, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	stream := func(p []byte) []byte { return append(bytes.Clone(head), deflate(p)...) }
	// A bit that marks one more page flat, with that page's bytes there
	// and the stream of the rest behind them: only the bitmap check can
	// refuse it.
	withBit := func(bit byte, rest []byte) []byte {
		p := append(append(bytes.Clone(head), make([]byte, pageSize)...), deflate(rest)...)
		p[1] |= bit
		return p
	}
	allFlat := pages("RR", 2)
	beside := append(append([]byte{pagedTag, 0x03}, allFlat...), 0x03, 0x00) // and an empty stream
	cases := []struct {
		name string
		bf   badFrame
	}{
		{"paged-no-bitmap", badFrame{payload: []byte{pagedTag}, h: Header{Codec: DeflateID,
			Checksum: Checksum(src[:100]), RawLen: 100, EncLen: 1}, want: ErrCorrupt}},
		{"paged-short-of-its-flat-page", paged(head[:2+pageSize/2])},
		{"paged-no-stream", paged(head)},
		{"paged-spare-bit", paged(withBit(0x80, deflated))},
		{"paged-tail-page-bit", paged(withBit(0x08, deflated[:2*pageSize]))},
		{"paged-stream-longer", paged(stream(append(deflated, '!')))},
		{"paged-stream-shorter", paged(stream(deflated[:len(deflated)-1]))},
		{"paged-stream-cut", paged(frame[HeaderSize : len(frame)-3])},
		{"paged-stream-beside-all-flat", badFrame{payload: beside, h: Header{Codec: DeflateID,
			Checksum: Checksum(allFlat), RawLen: uint32(len(allFlat)), EncLen: uint32(len(beside))}, want: ErrCorrupt}},
		{"paged-no-flat-bit", paged(append([]byte{pagedTag, 0x00}, deflate(src)...))},
	}
	out := make([]badFrame, len(cases))
	for i, c := range cases {
		out[i] = c.bf
		out[i].name = c.name
	}
	return out
}

// TestPresizedDecodeRejects: the decoder that fills a buffer sized from
// the header rejects what the growing one rejected, under the same error
// classes, whatever capacity it is handed — and leaves the caller's slice
// as it found it: dst[:base] comes back with its length and bytes, and
// nothing past base+RawLen is written.
func TestPresizedDecodeRejects(t *testing.T) {
	const base = 3
	for _, bf := range badDeflateFrames(t) {
		for _, spare := range []struct {
			name string
			n    func(rawLen int) int // capacity past base
		}{
			{"zero", func(int) int { return 0 }},
			{"exact", func(rawLen int) int { return rawLen }},
			{"excess", func(rawLen int) int { return rawLen + 64 }},
		} {
			t.Run(bf.name+"/"+spare.name, func(t *testing.T) {
				rawLen := int(bf.h.RawLen)
				if bf.name == "impossible" {
					rawLen = 1 << 10 // no test hands over 4 GiB; the verdict comes before the buffer matters
				}
				backing := bytes.Repeat([]byte{0xEE}, base+spare.n(rawLen))
				copy(backing, "pre")
				out, err := DecodeFrame(bf.h, bf.payload, backing[:base])
				if err == nil {
					t.Fatal("decoded")
				}
				if !errors.Is(err, bf.want) {
					t.Fatalf("error %v, want %v", err, bf.want)
				}
				if errors.Is(err, ErrChecksum) != errors.Is(bf.want, ErrChecksum) {
					t.Fatalf("error %v: checksum verdict on the wrong case", err)
				}
				if string(out) != "pre" {
					t.Fatalf("dst came back as %d bytes %q, want its first %d untouched", len(out), out, base)
				}
				for i := base + rawLen; i < len(backing); i++ {
					if backing[i] != 0xEE {
						t.Fatalf("byte %d past the declared size was written", i-base-rawLen)
					}
				}
			})
		}
	}
}

// TestPresizedDecodeFillsInPlace: a healthy frame decodes into the spare
// capacity it is handed, and into one buffer of its own when there is
// none — appended after what dst already held either way.
func TestPresizedDecodeFillsInPlace(t *testing.T) {
	src := compressible(8<<10, 5)
	frame, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spare := range []int{0, len(src), len(src) + 64} {
		dst := append(make([]byte, 0, 3+spare), "pre"...)
		out, err := DecodeFrame(h, frame[HeaderSize:], dst)
		if err != nil {
			t.Fatalf("spare %d: %v", spare, err)
		}
		if string(out[:3]) != "pre" || !bytes.Equal(out[3:], src) {
			t.Fatalf("spare %d: decoded %d bytes, wrong content", spare, len(out))
		}
		if inPlace := &out[0] == &dst[0]; inPlace != (spare >= len(src)) {
			t.Fatalf("spare %d: decoded in place = %v", spare, inPlace)
		}
	}
}
