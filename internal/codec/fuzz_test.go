package codec

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// frameBytes builds a well-formed frame for seeding the fuzzers.
func frameBytes(t testing.TB, c Codec, seq uint64, off int64, payload []byte) []byte {
	t.Helper()
	frame, _, err := EncodeFrame(c, seq, off, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// FuzzFrameDecode hammers the frame header and payload parsers with
// arbitrary bytes: truncated headers, corrupt magic, lying length
// fields, and absurd offsets must all fail cleanly — no panics, no
// oversized allocations driven by attacker-controlled lengths, and no
// decoded output that disagrees with its own header.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CRF"))                       // short of even the magic
	f.Add([]byte("NOPE nothing like a frame")) // magic mismatch
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize))
	f.Add(frameBytes(f, Raw(), 0, 0, []byte("abcd")))
	f.Add(frameBytes(f, Raw(), 7, 4096, bytes.Repeat([]byte{0xAA}, 100)))
	f.Add(frameBytes(f, Deflate(), 1, 0, bytes.Repeat([]byte("compressible "), 40)))
	f.Add(frameBytes(f, Deflate(), 2, 0, pages("TRTR", 1))) // paged
	// Lying EncLen: header promises more payload than follows.
	lying := frameBytes(f, Raw(), 0, 0, []byte("abcdefgh"))
	f.Add(lying[:HeaderSize+3])
	// Version from the future.
	future := frameBytes(f, Raw(), 0, 0, []byte("x"))
	future = bytes.Clone(future)
	future[4] = 99
	f.Add(future)
	// Deflate codec ID over garbage payload.
	garble := bytes.Clone(frameBytes(f, Raw(), 0, 0, []byte("garbagegarbage")))
	garble[5] = byte(DeflateID)
	f.Add(garble)
	// Checksum mutations: a zeroed checksum field, a flipped payload bit
	// under an intact checksum; and versions 1 (retired, refused) and 3
	// (from the future, must reject, not misread as today's layout).
	f.Add(frameBytes(f, Deflate(), 6, 256, bytes.Repeat([]byte("v2 "), 50)))
	crcZero := bytes.Clone(frameBytes(f, Raw(), 0, 0, []byte("checksummed")))
	crcZero[12], crcZero[13], crcZero[14], crcZero[15] = 0, 0, 0, 0
	f.Add(crcZero)
	bitrot := bytes.Clone(frameBytes(f, Raw(), 0, 0, []byte("checksummed")))
	bitrot[HeaderSize+3] ^= 0x01
	f.Add(bitrot)
	for _, ver := range []byte{1, 3} {
		other := bytes.Clone(frameBytes(f, Raw(), 0, 0, []byte("x")))
		other[4] = ver
		f.Add(other)
	}

	// One of each way a deflate stream can disagree with its header
	// (TestPresizedDecodeRejects): longer, shorter, cut mid-block, rotted;
	// then each shape of paged payload Encode never writes.
	for _, bf := range badDeflateFrames(f) {
		hdr := make([]byte, HeaderSize)
		PutHeader(hdr, bf.h)
		f.Add(append(hdr, bf.payload...))
	}
	// Paged payloads that decode: a long bitmap with a partial tail page,
	// and every page flat with no stream, which Encode leaves to the raw
	// bailout but Decode reads.
	f.Add(frameBytes(f, Deflate(), 3, 0, append(pages(strings.Repeat("RTZ", 6), 2), "tail"...)))
	allFlat := pages("RR", 3)
	flatOnly := append([]byte{pagedTag, 0x03}, allFlat...)
	hdr := make([]byte, HeaderSize)
	PutHeader(hdr, Header{Codec: DeflateID, Checksum: Checksum(allFlat),
		RawLen: uint32(len(allFlat)), EncLen: uint32(len(flatOnly))})
	f.Add(append(hdr, flatOnly...))

	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseHeader(b)
		if v1 := len(b) >= HeaderSize && Sniff(b) && b[4] == 1; v1 != errors.Is(err, ErrFrameVersion) {
			t.Fatalf("ParseHeader of a v1 header (%v): %v", v1, err)
		}
		if err != nil {
			if !errors.Is(err, ErrNotFramed) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFrameVersion) {
				t.Fatalf("ParseHeader: unexpected error class %v", err)
			}
			return
		}
		if b[4] != Version {
			t.Fatalf("ParseHeader accepted version %d", b[4])
		}
		if h.Off < 0 || h.Off > MaxLogicalOff {
			t.Fatalf("ParseHeader accepted implausible offset %d", h.Off)
		}
		payload := b[HeaderSize:]
		if int64(len(payload)) > int64(h.EncLen) {
			payload = payload[:h.EncLen]
		}
		raw, err := DecodeFrame(h, payload, nil)
		if err != nil {
			return // malformed payloads must error, and did
		}
		if len(raw) != int(h.RawLen) {
			t.Fatalf("DecodeFrame returned %d bytes, header says %d", len(raw), h.RawLen)
		}
		// A decode that succeeded IS the checksum proof: recomputing must
		// agree, whatever bytes the fuzzer built the frame from.
		if Checksum(raw) != h.Checksum {
			t.Fatalf("decode passed with crc %08x over header %08x", Checksum(raw), h.Checksum)
		}
	})
}

// FuzzFrameRoundTrip checks that whatever bytes an application writes,
// Encode/Decode is the identity through both codecs — including the
// incompressible raw bailout path. Arbitrary bytes almost never hold a
// flat page, so each input also goes through as a mix of full pages that
// its first bytes choose (pageMix): paged payloads on every run.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte("hello checkpoint"), int64(4096))
	f.Add(bytes.Repeat([]byte{0}, 1000), int64(0))
	f.Add(bytes.Repeat([]byte("ab"), 500), int64(1<<40))
	// Mixed pages, so mutations start from streams that splice stored and
	// compressed runs: a flat run first, last, and twice in between, with
	// and without a partial page behind it.
	f.Add(pages("RT", 1), int64(0))
	f.Add(pages("TR", 2), int64(0))
	f.Add(append(pages("TRTR", 3), "partial page"...), int64(8192))
	// Pages built against the classifier's sample (foolingPage).
	f.Add(foolingPage(true), int64(0))
	f.Add(append(pages("T", 4), foolingPage(false)...), int64(0))
	f.Fuzz(func(t *testing.T, input []byte, off int64) {
		if off < 0 || off > MaxLogicalOff {
			return
		}
		for _, payload := range [][]byte{input, pageMix(input)} {
			roundTrip(t, payload, off)
		}
	})
}

// pageMix turns each of the first 10 bytes of b into a full page — random
// (flat) when the byte is 0 mod 3, text when 1, zeros when 2 — and keeps
// the rest of b as a tail behind them.
func pageMix(b []byte) []byte {
	n := min(len(b), 10)
	out := make([]byte, n*pageSize, n*pageSize+len(b)-n)
	for i, k := range b[:n] {
		switch p := out[i*pageSize : (i+1)*pageSize]; k % 3 {
		case 0:
			copy(p, incompressible(pageSize, int64(k)))
		case 1:
			textPage(p, int(k))
		}
	}
	return append(out, b[n:]...)
}

// roundTrip encodes payload at off through both codecs and checks that
// each frame decodes back to it.
func roundTrip(t *testing.T, payload []byte, off int64) {
	t.Helper()
	for _, c := range []Codec{Raw(), Deflate()} {
		frame, hdr, err := EncodeFrame(c, 3, off, payload, nil)
		if err != nil {
			t.Fatalf("%s: EncodeFrame: %v", c.Name(), err)
		}
		if len(frame) > HeaderSize+len(payload) || hdr.EncLen > hdr.RawLen {
			t.Fatalf("%s: frame grew the payload: %d > %d (EncLen %d, RawLen %d)",
				c.Name(), len(frame), HeaderSize+len(payload), hdr.EncLen, hdr.RawLen)
		}
		reparsed, err := ParseHeader(frame)
		if err != nil {
			t.Fatalf("%s: reparse own header: %v", c.Name(), err)
		}
		if reparsed != hdr {
			t.Fatalf("%s: header round trip: %+v != %+v", c.Name(), reparsed, hdr)
		}
		if hdr.Checksum != Checksum(payload) {
			t.Fatalf("%s: encoder stamped crc %08x, payload is %08x", c.Name(), hdr.Checksum, Checksum(payload))
		}
		raw, err := DecodeFrame(hdr, frame[HeaderSize:], nil)
		if err != nil {
			t.Fatalf("%s: DecodeFrame: %v", c.Name(), err)
		}
		if !bytes.Equal(raw, payload) {
			t.Fatalf("%s: payload round trip mismatch", c.Name())
		}
	}
}

// FuzzDeflateStream checks the encoder against the stdlib inflater. Each
// input, and the page mix its first bytes choose, is encoded as Encode
// would, leaving its flat pages out: a bare flate reader must inflate the
// stream to exactly the other bytes, and a fresh encoder and one that has
// encoded every earlier input must write the same stream.
func FuzzDeflateStream(f *testing.F) {
	for _, n := range []int{0, 1, 2, 3} {
		f.Add(bytes.Repeat([]byte{'x'}, n))
	}
	f.Add(bytes.Repeat([]byte{7}, 1<<20)) // distance 1, runs of 258
	f.Add(benchPayload())                 // period-47 text
	for _, d := range []int{windowSize, windowSize + 1} {
		// A 300-byte random block, zeros, and the block again at distance
		// d: a match at 32768, and one out of reach at 32769.
		b := make([]byte, d, d+300)
		copy(b, incompressible(300, int64(d)))
		f.Add(append(b, b[:300]...))
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(all)
	f.Add([]byte("xxxx")) // one literal symbol, and no distance code at all
	// Every pair of byte values once (a de Bruijn sequence), so no 4 bytes
	// repeat: cut to maxTokens, it is one block of literals exactly.
	var db []byte
	for i := 0; i < 256; i++ {
		db = append(db, byte(i))
		for j := i + 1; j < 256; j++ {
			db = append(db, byte(i), byte(j))
		}
	}
	f.Add(db[:maxTokens])
	f.Add([]byte{0, 1, 2, 1, 1, 0, 2, 1, 0, 1, 't', 'a', 'i', 'l'}) // pageMix: runs between flat pages
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add(append(pages("T", 5), foolingPage(true)...)) // a random sample over zeros reads flat
	f.Add(foolingPage(false))
	reused := new(encoder)
	f.Fuzz(func(t *testing.T, input []byte) {
		for _, src := range [][]byte{input, pageMix(input)} {
			bitmap := make([]byte, (len(src)+8*pageSize-1)/(8*pageSize))
			var rest []byte
			for off := 0; off < len(src); off += pageSize {
				p := src[off:min(off+pageSize, len(src))]
				if i := off / pageSize; len(p) == pageSize && flatPage(p) {
					bitmap[i/8] |= 1 << (i % 8)
				} else {
					rest = append(rest, p...)
				}
			}
			stream := new(encoder).stream(nil, src, bitmap)
			if again := reused.stream(nil, src, bitmap); !bytes.Equal(again, stream) {
				t.Fatalf("a reused encoder wrote %d bytes, a fresh one %d", len(again), len(stream))
			}
			if got := inflate(t, stream); !bytes.Equal(got, rest) {
				t.Fatalf("bare flate reader: %d bytes back, want %d", len(got), len(rest))
			}
		}
	})
}
