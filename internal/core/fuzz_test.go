package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"crfs/internal/codec"
)

// fuzzHandle serves a byte slice through the backendHandle interface and
// records the highest byte offset any read requested, so the fuzzer can
// assert the prober never reaches past the size it was told.
type fuzzHandle struct {
	data   []byte
	maxReq int64
}

func (h *fuzzHandle) ReadAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > h.maxReq {
		h.maxReq = end
	}
	if off < 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if off >= int64(len(h.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *fuzzHandle) WriteAt(p []byte, off int64) (int, error) { panic("probe must not write") }
func (h *fuzzHandle) Truncate(size int64) error                { panic("probe must not truncate") }
func (h *fuzzHandle) Sync() error                              { panic("probe must not sync") }
func (h *fuzzHandle) Close() error                             { return nil }

// containerBytes builds a valid container from (off, payload) extents.
func containerBytes(t testing.TB, c codec.Codec, extents ...[]byte) []byte {
	t.Helper()
	var out []byte
	var off int64
	for i, p := range extents {
		frame, _, err := codec.EncodeFrame(c, uint64(i), off, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
		off += int64(len(p))
	}
	return out
}

// FuzzProbeContainer throws arbitrary file contents at the container
// prober that Open, Stat, and Truncate all route through. Whatever the
// bytes — truncated headers, corrupt magic, frames whose lengths lie,
// overlapping or absurd offsets — the probe must never panic, never
// read past the size it was given plus one header, and, when it does
// accept a container, report an index consistent with the raw bytes.
func FuzzProbeContainer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("plain old checkpoint data, no frames here"))
	f.Add([]byte("CRFC"))                                    // magic, then nothing
	f.Add(bytes.Repeat([]byte{0x00}, codec.HeaderSize))      // no magic
	f.Add(containerBytes(f, codec.Raw(), []byte("abcdefg"))) // 1-frame container
	f.Add(containerBytes(f, codec.Raw(), []byte("abc"), []byte("defgh"), []byte("ij")))
	f.Add(containerBytes(f, codec.Deflate(), bytes.Repeat([]byte("deflate me "), 30)))
	// Truncated mid-payload: the last frame overruns the container.
	whole := containerBytes(f, codec.Raw(), []byte("0123456789abcdef"))
	f.Add(whole[:len(whole)-5])
	// Second frame's header is garbage.
	torn := bytes.Clone(containerBytes(f, codec.Raw(), []byte("first")))
	f.Add(append(torn, []byte("CRFX second frame never parses")...))
	// Lying EncLen in the first header (points far past the data).
	liar := bytes.Clone(containerBytes(f, codec.Raw(), []byte("tiny")))
	liar[28] = 0xFF
	liar[29] = 0xFF
	f.Add(liar)
	// Version and checksum-mutation shapes: a container whose first
	// header says v1 (refused), a v1 version byte behind a v2 frame
	// (damage), a rotted payload byte, and a v3 frame mid-chain.
	v1 := bytes.Clone(containerBytes(f, codec.Raw(), []byte("old"), []byte("format"), []byte("file")))
	v1[4] = 1
	f.Add(v1)
	v1Mid := bytes.Clone(containerBytes(f, codec.Deflate(), bytes.Repeat([]byte("v2 half "), 20), []byte("v1 half")))
	v1Mid[bytes.LastIndex(v1Mid, codec.Magic[:])+4] = 1
	f.Add(v1Mid)
	rotted := bytes.Clone(containerBytes(f, codec.Raw(), []byte("checksummed"), []byte("payload")))
	rotted[codec.HeaderSize+2] ^= 0x01
	f.Add(rotted)
	futureMid := bytes.Clone(containerBytes(f, codec.Raw(), []byte("good"), []byte("from the future")))
	futureMid[codec.HeaderSize+4+4] = 3 // second frame's version byte
	f.Add(futureMid)

	f.Fuzz(func(t *testing.T, data []byte) {
		h := &fuzzHandle{data: data}
		size := int64(len(data))
		p, err := probeContainer(h, size)
		// A header read may start just inside the file and run one header
		// past its end (short read -> EOF -> clean error); anything beyond
		// that bound would be reading unrelated bytes on a real backend.
		if h.maxReq > size+codec.HeaderSize {
			t.Fatalf("probe requested bytes up to %d of a %d-byte file", h.maxReq, size)
		}
		// In-memory reads cannot fail: the one refusal is a container
		// whose first header is v1.
		if v1 := size >= codec.HeaderSize && codec.Sniff(data) && data[4] == 1; v1 != (err != nil) || err != nil && !errors.Is(err, codec.ErrFrameVersion) {
			t.Fatalf("v1 first header %v, probe error %v", v1, err)
		}
		if err != nil {
			return
		}
		if !p.sniffed && p.ok {
			t.Fatal("ok without a magic match")
		}
		if !p.ok {
			if len(p.frames) != 0 || p.logical != 0 || p.nextSeq != 0 {
				t.Fatalf("rejected probe leaked results: %d frames, logical %d, seq %d",
					len(p.frames), p.logical, p.nextSeq)
			}
			return
		}
		// Accepted (clean or salvaged): the index must be a consistent
		// byte prefix of the container.
		var wantLogical int64
		off := int64(0)
		for _, fr := range p.frames {
			if fr.Pos != off {
				t.Fatalf("frame at pos %d, scan order says %d", fr.Pos, off)
			}
			end := fr.End()
			if end > size {
				t.Fatalf("accepted frame overruns container: %d > %d", end, size)
			}
			if fr.Header.Off < 0 || fr.Header.Off > codec.MaxLogicalOff {
				t.Fatalf("accepted frame with implausible offset %d", fr.Header.Off)
			}
			if v := data[fr.Pos+4]; v != codec.Version {
				t.Fatalf("accepted frame with version %d", v)
			}
			if fr.Header.Seq >= p.nextSeq {
				t.Fatalf("frame seq %d >= nextSeq %d", fr.Header.Seq, p.nextSeq)
			}
			if e := fr.Header.Off + int64(fr.Header.RawLen); e > wantLogical {
				wantLogical = e
			}
			off = end
		}
		if p.salvaged {
			// Salvage keeps a strict prefix and accounts for every byte:
			// intact prefix + truncated tail must equal the file.
			if p.report.IntactBytes != off {
				t.Fatalf("salvage reports %d intact bytes, frames end at %d", p.report.IntactBytes, off)
			}
			if p.report.IntactBytes+p.report.TruncatedBytes != size {
				t.Fatalf("salvage accounts %d+%d bytes of a %d-byte file",
					p.report.IntactBytes, p.report.TruncatedBytes, size)
			}
			if p.report.TruncatedBytes <= 0 {
				t.Fatal("salvaged probe with nothing truncated")
			}
			if len(p.frames) == 0 && !p.report.FirstHeaderValid {
				t.Fatal("salvaged to empty without a parseable first header")
			}
		} else if off != size {
			t.Fatalf("clean container with %d trailing bytes unaccounted", size-off)
		}
		if p.logical != wantLogical {
			t.Fatalf("logical %d, frames say %d", p.logical, wantLogical)
		}
		// Determinism: probing the same bytes again agrees.
		p2, err2 := probeContainer(&fuzzHandle{data: data}, size)
		if err2 != nil || !p2.ok || !p2.sniffed || p2.logical != p.logical ||
			p2.nextSeq != p.nextSeq || len(p2.frames) != len(p.frames) || p2.salvaged != p.salvaged {
			t.Fatal("probe is not deterministic")
		}
	})
}
