package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// A file written through a mount with a non-raw codec is a container: a
// sequence of frames, each one flushed aggregation chunk encoded
// independently (so IO workers compress and decompress in parallel) and
// prefixed by a fixed self-describing header.
//
// Frame header layout (little-endian, 32 bytes, both versions):
//
//	offset  size  v1 field                v2 field
//	0       4     magic "CRFC"            magic "CRFC"
//	4       1     format version (1)      format version (2)
//	5       1     codec ID                codec ID
//	6       2     reserved, zero          reserved, zero
//	8       8     frame sequence number   sequence number (4) + CRC32-C (4)
//	16      8     logical file offset     logical file offset
//	24      4     raw payload length      raw payload length
//	28      4     encoded payload length  encoded payload length
//
// Version 2 narrows the sequence number to 32 bits — v1 already bounded
// it to 2^56 because real writers count flushed chunks, and compaction
// renumbers densely from zero, so 2^32 is equally unreachable — and
// spends the freed 4 bytes on a CRC32-C (Castagnoli) of the frame's
// *uncompressed* payload. Every decode path verifies it, so bit rot in a
// stored-raw payload (which decodes "successfully" at any contents) or a
// DEFLATE stream flipped inside a stored block is detected instead of
// served. Offset, raw length, and encoded length live at the same byte
// offsets in both versions.
//
// Frames are appended in completion order, which concurrency can permute;
// the sequence number, assigned in flush order, restores write order at
// decode time so overlapping extents resolve to last-writer-wins.

// Frame container constants.
const (
	// HeaderSize is the size of the fixed frame header in bytes, the
	// same for every format version.
	HeaderSize = 32
	// Version1 is the original checksum-less frame format.
	Version1 = 1
	// Version2 adds a CRC32-C of the uncompressed payload to the header.
	Version2 = 2
	// Version is the frame format version written by default. Readers
	// accept every version up to it.
	Version = Version2
	// MaxPayload is the largest raw payload one frame can carry.
	MaxPayload = math.MaxUint32
	// MaxLogicalOff bounds a frame's logical offset (64 PiB) — far past
	// any real checkpoint, so a corrupt or crafted header fails parsing
	// (and takes the caller's demote path) instead of yielding absurd
	// logical sizes that callers might allocate for. It also keeps
	// Off+RawLen safely inside int64.
	MaxLogicalOff = 1 << 56
	// MaxSeq bounds a v1 frame's sequence number the same way: sequence
	// numbers count flushed chunks, so 2^56 can never be reached by a
	// real writer, while a crafted value near MaxUint64 would overflow
	// the scanner's next-sequence computation to 0 and make every frame
	// appended afterwards sort below the existing ones — silently
	// resurrecting overwritten data.
	MaxSeq = 1 << 56
	// MaxSeqV2 is the v2 bound: the sequence number is stored in 32
	// bits. A v2 writer appending to a (crafted) v1 container whose
	// sequences exceed it fails the write loudly rather than wrapping.
	MaxSeqV2 = math.MaxUint32
)

// Magic identifies a CRFS frame container ("CRFS Chunk").
var Magic = [4]byte{'C', 'R', 'F', 'C'}

// Frame container errors.
var (
	// ErrNotFramed reports data that does not begin with a frame header.
	ErrNotFramed = errors.New("codec: not a CRFS frame container")
	// ErrCorrupt reports a malformed or inconsistent frame.
	ErrCorrupt = errors.New("codec: corrupt frame")
	// ErrChecksum reports a v2 frame whose payload decoded to the
	// declared length but does not match its stored CRC32-C — proven bit
	// rot, as opposed to the structural damage ErrCorrupt covers.
	// ErrChecksum wraps ErrCorrupt, so errors.Is(err, ErrCorrupt) holds
	// for both and errors.Is(err, ErrChecksum) distinguishes them.
	ErrChecksum = fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C (Castagnoli) of p, the per-frame payload
// checksum v2 headers carry. Checksum(nil) is 0, so zero-extent marker
// and pad frames carry a zero checksum naturally.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Header is the decoded form of a frame header.
type Header struct {
	Version  uint8  // format version (Version1 or Version2; 0 serializes as current)
	Codec    ID     // codec of the payload (RawID after incompressible bailout)
	Seq      uint64 // flush-order sequence number within the file
	Checksum uint32 // CRC32-C of the raw (uncompressed) payload; v2 only
	Off      int64  // logical file offset of the raw extent
	RawLen   uint32 // decoded payload length
	EncLen   uint32 // encoded payload length as stored
}

// PutHeader serializes h into b, which must be at least HeaderSize long.
// A zero Version serializes as the current version. PutHeader is the
// low-level stamp and does not validate bounds; EncodeFrame and
// ParseHeader do.
func PutHeader(b []byte, h Header) {
	_ = b[HeaderSize-1]
	v := h.Version
	if v == 0 {
		v = Version
	}
	copy(b[0:4], Magic[:])
	b[4] = v
	b[5] = byte(h.Codec)
	b[6], b[7] = 0, 0
	if v == Version1 {
		binary.LittleEndian.PutUint64(b[8:16], h.Seq)
	} else {
		binary.LittleEndian.PutUint32(b[8:12], uint32(h.Seq))
		binary.LittleEndian.PutUint32(b[12:16], h.Checksum)
	}
	binary.LittleEndian.PutUint64(b[16:24], uint64(h.Off))
	binary.LittleEndian.PutUint32(b[24:28], h.RawLen)
	binary.LittleEndian.PutUint32(b[28:32], h.EncLen)
}

// ParseHeader decodes and validates a frame header. Both format versions
// parse; versions from the future are rejected as corrupt so a torn or
// crafted header takes the caller's salvage/demote path instead of being
// misread under today's layout.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: short header (%d bytes)", ErrNotFramed, len(b))
	}
	if !Sniff(b) {
		return Header{}, ErrNotFramed
	}
	if b[4] != Version1 && b[4] != Version2 {
		return Header{}, fmt.Errorf("%w: unsupported frame version %d", ErrCorrupt, b[4])
	}
	h := Header{
		Version: b[4],
		Codec:   ID(b[5]),
		Off:     int64(binary.LittleEndian.Uint64(b[16:24])),
		RawLen:  binary.LittleEndian.Uint32(b[24:28]),
		EncLen:  binary.LittleEndian.Uint32(b[28:32]),
	}
	if h.Version == Version1 {
		h.Seq = binary.LittleEndian.Uint64(b[8:16])
	} else {
		h.Seq = uint64(binary.LittleEndian.Uint32(b[8:12]))
		h.Checksum = binary.LittleEndian.Uint32(b[12:16])
	}
	if h.Off < 0 || h.Off > MaxLogicalOff {
		return Header{}, fmt.Errorf("%w: implausible logical offset %d", ErrCorrupt, h.Off)
	}
	if h.Seq > MaxSeq {
		return Header{}, fmt.Errorf("%w: implausible sequence number %d", ErrCorrupt, h.Seq)
	}
	return h, nil
}

// Sniff reports whether b begins with the frame container magic.
func Sniff(b []byte) bool {
	return len(b) >= len(Magic) && [4]byte(b[:4]) == Magic
}

// EncodeFrame encodes src as one current-version frame — header plus
// payload — appended to dst, and returns the extended slice with the
// header describing it. When c does not shrink the payload
// (incompressible data), the frame is stored raw instead, so a frame's
// encoded length never exceeds its raw length: compression can only save
// backend IO, never amplify it beyond the fixed header.
func EncodeFrame(c Codec, seq uint64, off int64, src, dst []byte) ([]byte, Header, error) {
	return EncodeFrameVersion(c, Version, seq, off, src, dst)
}

// EncodeFrameVersion is EncodeFrame with an explicit format version:
// Version2 (the default) stamps the payload's CRC32-C into the header;
// Version1 writes the legacy checksum-less layout. No mount writes v1
// any more; it stays as the frozen generator behind the golden
// fixtures, the corruption matrix, the mixed-version read tests and the
// v1-vs-v2 encode/decode benchmarks.
func EncodeFrameVersion(c Codec, version uint8, seq uint64, off int64, src, dst []byte) ([]byte, Header, error) {
	if version != Version1 && version != Version2 {
		return dst, Header{}, fmt.Errorf("codec: cannot encode frame version %d", version)
	}
	if int64(len(src)) > MaxPayload {
		return dst, Header{}, fmt.Errorf("codec: frame payload %d exceeds %d bytes", len(src), int64(MaxPayload))
	}
	if off < 0 || off > MaxLogicalOff {
		return dst, Header{}, fmt.Errorf("codec: frame offset %d out of range [0, %d]", off, int64(MaxLogicalOff))
	}
	maxSeq := uint64(MaxSeq)
	if version >= Version2 {
		maxSeq = MaxSeqV2
	}
	if seq > maxSeq {
		return dst, Header{}, fmt.Errorf("codec: frame sequence %d exceeds %d", seq, maxSeq)
	}
	h := Header{Version: version, Codec: c.ID(), Seq: seq, Off: off, RawLen: uint32(len(src))}
	if version >= Version2 {
		h.Checksum = Checksum(src)
	}
	base := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	if c.ID() != RawID {
		enc, err := c.Encode(dst, src)
		if err != nil {
			return dst[:base], Header{}, err
		}
		dst = enc
	}
	if c.ID() == RawID || len(dst)-base-HeaderSize >= len(src) {
		// Incompressible bailout: store verbatim under the raw codec ID.
		dst = append(dst[:base+HeaderSize], src...)
		h.Codec = RawID
	}
	h.EncLen = uint32(len(dst) - base - HeaderSize)
	PutHeader(dst[base:base+HeaderSize], h)
	return dst, h, nil
}

// DecodeFrame decodes one frame payload described by h, appending the raw
// bytes to dst. The codec named by the header is resolved from the
// registry, so any mount can read any registered codec's frames. For v2
// headers the decoded bytes are verified against the header's CRC32-C —
// a mismatch returns ErrChecksum — so every decode path (reads,
// prefetch, salvage, scrub, compaction) proves payload integrity, not
// just decodability. v1 headers carry no checksum and skip the check.
// The codec takes the CRC as it writes each piece of the output,
// so a frame is not read back from memory to be verified; on any error
// DecodeFrame returns dst, never the bytes it decoded.
func DecodeFrame(h Header, payload, dst []byte) ([]byte, error) {
	if len(payload) != int(h.EncLen) {
		return dst, fmt.Errorf("%w: payload length %d, header says %d", ErrCorrupt, len(payload), h.EncLen)
	}
	c, err := ByID(h.Codec)
	if err != nil {
		return dst, err
	}
	base, v2 := len(dst), h.Version >= Version2
	out, sum, err := c.decodeSum(dst, payload, int64(h.RawLen), v2)
	if err != nil {
		return dst, err
	}
	if len(out)-base != int(h.RawLen) {
		return dst, fmt.Errorf("%w: decoded %d bytes, header says %d", ErrCorrupt, len(out)-base, h.RawLen)
	}
	if v2 && sum != h.Checksum {
		return dst, fmt.Errorf("%w: crc32c %08x, header says %08x", ErrChecksum, sum, h.Checksum)
	}
	return out, nil
}

// sumPiece is the most a decode writes before it sums what it wrote. A
// piece this small is still in cache when the CRC reads it, where a whole
// 4 MiB frame summed after the decode has to come back from memory.
const sumPiece = 16 << 10

// copySum copies src into dst, which is as long, sumPiece bytes at a time,
// and when sum is set folds each piece into crc right after copying it.
func copySum(dst, src []byte, crc uint32, sum bool) uint32 {
	if !sum {
		copy(dst, src)
		return crc
	}
	for off := 0; off < len(src); off += sumPiece {
		n := copy(dst[off:], src[off:min(off+sumPiece, len(src))])
		crc = crc32.Update(crc, castagnoli, dst[off:off+n])
	}
	return crc
}
