package codec

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// TestHeaderGoldenBytes pins the retired v1 header layout, which ParseHeader
// recognizes only to refuse: a 64-bit sequence number in bytes 8–16 and
// no checksum. Its fields would parse under v2's layout, so the version
// byte alone must turn it away, as ErrFrameVersion and not as damage.
func TestHeaderGoldenBytes(t *testing.T) {
	b, err := hex.DecodeString("" +
		"43524643" + // magic "CRFC"
		"01" + // version 1
		"01" + // codec id: deflate
		"0000" + // reserved
		"efcdab8967452300" + // seq, little-endian
		"0102030405060700" + // logical offset, little-endian
		"ddccbbaa" + // raw length, little-endian
		"44332211") // encoded length, little-endian
	if err != nil {
		t.Fatal(err)
	}
	if h, err := ParseHeader(b); !errors.Is(err, ErrFrameVersion) || errors.Is(err, ErrCorrupt) || h != (Header{}) {
		t.Fatalf("ParseHeader of a v1 header = %+v, %v; want ErrFrameVersion", h, err)
	}
}

// TestHeaderGoldenBytesV2 pins the on-disk frame header layout. If this
// test breaks, existing containers become unreadable: bump Version and
// add migration instead of editing the expectation.
func TestHeaderGoldenBytesV2(t *testing.T) {
	h := Header{
		Codec:    DeflateID,          // 0x01
		Seq:      0x89abcdef,         // within MaxSeq
		Checksum: 0x67452301,         // payload CRC32-C
		Off:      0x0007060504030201, // within MaxLogicalOff
		RawLen:   0xaabbccdd,
		EncLen:   0x11223344,
	}
	b := make([]byte, HeaderSize)
	PutHeader(b, h)
	want := "" +
		"43524643" + // magic "CRFC"
		"02" + // version 2
		"01" + // codec id: deflate
		"0000" + // reserved
		"efcdab89" + // seq (u32), little-endian
		"01234567" + // payload crc32c, little-endian
		"0102030405060700" + // logical offset, little-endian
		"ddccbbaa" + // raw length, little-endian
		"44332211" // encoded length, little-endian
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("v2 header layout changed:\n got %s\nwant %s", got, want)
	}
	back, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("ParseHeader(PutHeader(h)) = %+v, want %+v", back, h)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	b := make([]byte, HeaderSize)
	PutHeader(b, Header{Codec: RawID})
	short := b[:HeaderSize-1]
	if _, err := ParseHeader(short); !errors.Is(err, ErrNotFramed) {
		t.Errorf("short header: %v, want ErrNotFramed", err)
	}
	bad := bytes.Clone(b)
	bad[0] = 'X'
	if _, err := ParseHeader(bad); !errors.Is(err, ErrNotFramed) {
		t.Errorf("bad magic: %v, want ErrNotFramed", err)
	}
	if Sniff(bad) {
		t.Error("Sniff accepted bad magic")
	}
	ver := bytes.Clone(b)
	ver[4] = 99
	if _, err := ParseHeader(ver); !errors.Is(err, ErrCorrupt) {
		t.Errorf("future version: %v, want ErrCorrupt", err)
	}
	huge := make([]byte, HeaderSize)
	PutHeader(huge, Header{Codec: RawID, Off: 1 << 62})
	if _, err := ParseHeader(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("implausible offset: %v, want ErrCorrupt", err)
	}
	// Version 3 from the future must be rejected, not misread under
	// today's layout; version 1 is refused as a retired format.
	for ver, want := range map[byte]error{0: ErrCorrupt, 1: ErrFrameVersion, 3: ErrCorrupt} {
		other := bytes.Clone(b)
		other[4] = ver
		if _, err := ParseHeader(other); !errors.Is(err, want) {
			t.Errorf("v%d header: %v, want %v", ver, err, want)
		}
	}
}

// TestEncodeFrameBounds pins the encode guards: the sequence bound is
// 2^32-1, the field's width, and the offset bound MaxLogicalOff.
func TestEncodeFrameBounds(t *testing.T) {
	if _, h, err := EncodeFrame(Raw(), MaxSeq, MaxLogicalOff, nil, nil); err != nil || h.Seq != MaxSeq {
		t.Errorf("frame at the bounds: %+v, %v", h, err)
	}
	if _, _, err := EncodeFrame(Raw(), MaxSeq+1, 0, nil, nil); err == nil {
		t.Error("frame accepted a sequence past MaxSeq")
	}
	if _, _, err := EncodeFrame(Raw(), 0, MaxLogicalOff+1, nil, nil); err == nil {
		t.Error("frame accepted an offset past MaxLogicalOff")
	}
}

// TestEncodeFrameRoundTrip round-trips whole frames for both codecs and
// both data shapes.
func TestEncodeFrameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, _ := Lookup(name)
		for shape, src := range map[string][]byte{
			"compressible":   compressible(300<<10, 3),
			"incompressible": incompressible(300<<10, 4),
			"empty":          {},
		} {
			frame, h, err := EncodeFrame(c, 7, 12345, src, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, shape, err)
			}
			if h.Seq != 7 || h.Off != 12345 || int(h.RawLen) != len(src) {
				t.Fatalf("%s/%s: header %+v", name, shape, h)
			}
			if len(frame) != HeaderSize+int(h.EncLen) {
				t.Fatalf("%s/%s: frame length %d, header says %d", name, shape, len(frame), HeaderSize+int(h.EncLen))
			}
			parsed, err := ParseHeader(frame)
			if err != nil || parsed != h {
				t.Fatalf("%s/%s: reparse %+v, %v", name, shape, parsed, err)
			}
			dec, err := DecodeFrame(h, frame[HeaderSize:], nil)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, shape, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("%s/%s: frame round trip differs", name, shape)
			}
		}
	}
}

// TestEncodeFrameIncompressibleBailout checks the raw fallback: random
// data must be stored verbatim under RawID, so a frame never costs more
// than the payload plus the fixed header.
func TestEncodeFrameIncompressibleBailout(t *testing.T) {
	src := incompressible(256<<10, 9)
	frame, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != RawID {
		t.Fatalf("incompressible frame stored with codec %d, want raw bailout", h.Codec)
	}
	if int(h.EncLen) != len(src) || !bytes.Equal(frame[HeaderSize:], src) {
		t.Fatal("raw bailout did not store payload verbatim")
	}
	comp := compressible(256<<10, 9)
	_, h2, err := EncodeFrame(Deflate(), 0, 0, comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Codec != DeflateID || int(h2.EncLen) >= len(comp) {
		t.Fatalf("compressible frame: codec=%d enc=%d raw=%d", h2.Codec, h2.EncLen, len(comp))
	}
}

func TestDecodeFrameRejectsCorrupt(t *testing.T) {
	src := compressible(8<<10, 1)
	frame, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(h, frame[HeaderSize:len(frame)-1], nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated payload: %v, want ErrCorrupt", err)
	}
	bad := h
	bad.RawLen++
	if _, err := DecodeFrame(bad, frame[HeaderSize:], nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("raw length mismatch: %v, want ErrCorrupt", err)
	}
	unknown := h
	unknown.Codec = 200
	if _, err := DecodeFrame(unknown, frame[HeaderSize:], nil); err == nil {
		t.Error("unknown codec id decoded")
	}
}

// TestDecodeBoundedByRawLen: a frame whose header understates the
// decoded size must fail fast instead of inflating the whole (possibly
// enormous) stream into memory first.
func TestDecodeBoundedByRawLen(t *testing.T) {
	// 1 MB of zeros deflates to ~1 KB; lie that it decodes to 64 bytes.
	src := make([]byte, 1<<20)
	enc, err := Deflate().Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	lying := Header{Codec: DeflateID, RawLen: 64, EncLen: uint32(len(enc))}
	out, err := DecodeFrame(lying, enc, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("understated RawLen: %v, want ErrCorrupt", err)
	}
	if len(out) > 65 {
		t.Fatalf("decode buffered %d bytes despite 64-byte bound", len(out))
	}
	if _, err := decode(Raw(), nil, make([]byte, 100), 64); !errors.Is(err, ErrCorrupt) {
		t.Errorf("raw oversize payload: %v, want ErrCorrupt", err)
	}
}

// TestDecodeFrameFusedSum: the built-in codecs take a frame's CRC32-C
// piece by piece as they decode, so DecodeFrame must return what "decode,
// then Checksum the output" returns — the same bytes, or the same verdict
// and none of the bytes — for every payload shape the decoders walk
// differently. dst holds a prefix the sum must not cover and spare
// capacity poisoned with 0xDB, so a sum taken before the bytes land reads
// stale ones. Every shape has a flipped stored byte that reads
// ErrChecksum: the header's CRC, and, unless it decodes to nothing, a
// sampled payload byte.
func TestDecodeFrameFusedSum(t *testing.T) {
	// frame encodes src as a frame, or hands the codec's payload over as
	// it is when EncodeFrame's raw bailout would take it.
	frame := func(c Codec, src []byte, verbatim bool) (Header, []byte) {
		if !verbatim {
			box, h, err := EncodeFrame(c, 0, 0, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			return h, box[HeaderSize:]
		}
		payload, err := c.Encode(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		return Header{Codec: c.ID(), Checksum: Checksum(src),
			RawLen: uint32(len(src)), EncLen: uint32(len(payload))}, payload
	}
	tail := "short tail page"
	for _, tc := range []struct {
		name     string
		c        Codec
		src      []byte
		verbatim bool
		codec    ID
		paged    bool
	}{
		{"plain-stream", Deflate(), pages("TTTTTTTT", 1), false, DeflateID, false},
		{"paged-flat-first-middle-last", Deflate(), pages("RTTRTTR", 2), false, DeflateID, true},
		{"all-flat", Deflate(), pages("RRR", 3), true, DeflateID, true},
		{"short-tail", Deflate(), append(pages("RT", 4), tail...), false, DeflateID, true},
		{"run-past-one-piece", Deflate(), append(pages("TTTTTRTTTTT", 5), tail...), false, DeflateID, true},
		{"zero-length/deflate", Deflate(), nil, true, DeflateID, false},
		{"zero-length/raw", Raw(), nil, false, RawID, false},
		{"raw-bailout", Deflate(), append(pages("RRRRR", 6), tail...), false, RawID, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, payload := frame(tc.c, tc.src, tc.verbatim)
			paged := h.Codec == DeflateID && len(payload) > 0 && payload[0] == pagedTag
			if h.Codec != tc.codec || paged != tc.paged {
				t.Fatalf("shape: codec %d, paged %v; want codec %d, paged %v", h.Codec, paged, tc.codec, tc.paged)
			}
			check := func(what string, h Header, payload []byte) ([]byte, error) {
				t.Helper()
				want, werr := decodeThenChecksum(h, payload)
				dst := append(bytes.Repeat([]byte{0xDB}, 3+len(tc.src))[:0], "pre"...)
				got, err := DecodeFrame(h, payload, dst)
				if verdict(err) != verdict(werr) {
					t.Fatalf("%s: DecodeFrame says %v, decode then Checksum says %v", what, err, werr)
				}
				if err != nil {
					if string(got) != "pre" {
						t.Fatalf("%s: %v, yet dst came back as %d bytes", what, err, len(got))
					}
				} else if string(got[:3]) != "pre" || !bytes.Equal(got[3:], want) {
					t.Fatalf("%s: decoded %d bytes, wrong content", what, len(got)-3)
				}
				return got, err
			}
			if got, err := check("clean", h, payload); err != nil || !bytes.Equal(got[3:], tc.src) {
				t.Fatalf("clean frame: %v", err)
			}
			bad := h
			bad.Checksum ^= 1
			if _, err := check("header CRC flipped", bad, payload); !errors.Is(err, ErrChecksum) {
				t.Fatalf("header CRC flipped: %v", err)
			}
			flipped := slices.Clone(payload)
			sums := 0
			for at := 0; at < len(flipped); at += max(1, len(flipped)/512) {
				flipped[at] ^= 0x01
				if _, err := check(fmt.Sprintf("byte %d flipped", at), h, flipped); errors.Is(err, ErrChecksum) {
					sums++
				}
				flipped[at] ^= 0x01
			}
			if sums == 0 && h.RawLen > 0 {
				t.Fatal("no payload flip read ErrChecksum")
			}
			t.Logf("%d-byte payload: %d sampled flips read ErrChecksum", len(payload), sums)
		})
	}
}

// decodeThenChecksum is the reference the fused sum is checked against:
// decode, then one Checksum pass over the output.
func decodeThenChecksum(h Header, payload []byte) ([]byte, error) {
	c, err := ByID(h.Codec)
	if err != nil {
		return nil, err
	}
	out, err := decode(c, nil, payload, int64(h.RawLen))
	switch {
	case err != nil:
		return nil, err
	case len(out) != int(h.RawLen):
		return nil, ErrCorrupt
	case Checksum(out) != h.Checksum:
		return nil, ErrChecksum
	}
	return out, nil
}

// verdict classes a decode error: none, a checksum mismatch, or other
// damage.
func verdict(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrChecksum):
		return "checksum"
	}
	return "corrupt"
}
