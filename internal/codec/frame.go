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
// Frame header layout (little-endian, 32 bytes):
//
//	offset  size  field
//	0       4     magic "CRFC"
//	4       1     format version (2)
//	5       1     codec ID
//	6       2     reserved, zero
//	8       4     frame sequence number
//	12      4     CRC32-C of the uncompressed payload
//	16      8     logical file offset
//	24      4     raw payload length
//	28      4     encoded payload length
//
// Every decode path verifies the CRC32-C (Castagnoli), so bit rot in a
// stored-raw payload (which decodes "successfully" at any contents) or a
// DEFLATE stream flipped inside a stored block is detected instead of
// served. Version 1, the original layout, spent bytes 8–16 on a 64-bit
// sequence number and carried no checksum; a container that starts with
// a v1 header is refused (ErrFrameVersion), never read unchecked.
//
// Frames are appended in completion order, which concurrency can permute;
// the sequence number, assigned in flush order, restores write order at
// decode time so overlapping extents resolve to last-writer-wins.

// Frame container constants.
const (
	// HeaderSize is the size of the fixed frame header in bytes.
	HeaderSize = 32
	// Version is the frame format version, the only one written or read.
	Version = 2
	// MaxPayload is the largest raw payload one frame can carry.
	MaxPayload = math.MaxUint32
	// MaxLogicalOff bounds a frame's logical offset (64 PiB) — far past
	// any real checkpoint, so a corrupt or crafted header fails parsing
	// (and takes the caller's demote path) instead of yielding absurd
	// logical sizes that callers might allocate for. It also keeps
	// Off+RawLen safely inside int64.
	MaxLogicalOff = 1 << 56
	// MaxSeq bounds a frame's sequence number: the field is 32 bits wide.
	// A writer whose next sequence would pass it fails the write loudly
	// rather than wrapping.
	MaxSeq = math.MaxUint32
)

// Magic identifies a CRFS frame container ("CRFS Chunk").
var Magic = [4]byte{'C', 'R', 'F', 'C'}

// Frame container errors.
var (
	// ErrNotFramed reports data that does not begin with a frame header.
	ErrNotFramed = errors.New("codec: not a CRFS frame container")
	// ErrCorrupt reports a malformed or inconsistent frame.
	ErrCorrupt = errors.New("codec: corrupt frame")
	// ErrChecksum reports a frame whose payload decoded to the declared
	// length but does not match its stored CRC32-C — proven bit rot, as
	// opposed to the structural damage ErrCorrupt covers. ErrChecksum
	// wraps ErrCorrupt, so errors.Is(err, ErrCorrupt) holds for both and
	// errors.Is(err, ErrChecksum) distinguishes them.
	ErrChecksum = fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	// ErrFrameVersion reports a header of the retired v1 format, whose
	// payloads carry no checksum. It does not wrap ErrCorrupt: a v1
	// container is not damage to salvage or repair but a format this
	// module no longer reads, and every caller leaves it as it is.
	// ScanPrefix returns it only for the header at offset 0; a v1 header
	// behind a v2 frame is ordinary damage (ErrCorrupt).
	ErrFrameVersion = errors.New("codec: v1 frame container (payloads carry no checksum); not readable")
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C (Castagnoli) of p, the per-frame payload
// checksum headers carry. Checksum(nil) is 0, so zero-extent marker and
// pad frames carry a zero checksum naturally.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Header is the decoded form of a frame header.
type Header struct {
	Codec    ID     // codec of the payload (RawID after incompressible bailout)
	Seq      uint64 // flush-order sequence number within the file
	Checksum uint32 // CRC32-C of the raw (uncompressed) payload
	Off      int64  // logical file offset of the raw extent
	RawLen   uint32 // decoded payload length
	EncLen   uint32 // encoded payload length as stored
}

// PutHeader serializes h into b, which must be at least HeaderSize long.
// PutHeader is the low-level stamp and does not validate bounds;
// EncodeFrame and ParseHeader do.
func PutHeader(b []byte, h Header) {
	_ = b[HeaderSize-1]
	copy(b[0:4], Magic[:])
	b[4] = Version
	b[5] = byte(h.Codec)
	b[6], b[7] = 0, 0
	binary.LittleEndian.PutUint32(b[8:12], uint32(h.Seq))
	binary.LittleEndian.PutUint32(b[12:16], h.Checksum)
	binary.LittleEndian.PutUint64(b[16:24], uint64(h.Off))
	binary.LittleEndian.PutUint32(b[24:28], h.RawLen)
	binary.LittleEndian.PutUint32(b[28:32], h.EncLen)
}

// ParseHeader decodes and validates a frame header. A v1 header is
// ErrFrameVersion; any other version but Version is rejected as corrupt,
// so a torn or crafted header takes the caller's salvage/demote path
// instead of being misread under today's layout.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: short header (%d bytes)", ErrNotFramed, len(b))
	}
	if !Sniff(b) {
		return Header{}, ErrNotFramed
	}
	switch b[4] {
	case Version:
	case 1:
		return Header{}, ErrFrameVersion
	default:
		return Header{}, fmt.Errorf("%w: unsupported frame version %d", ErrCorrupt, b[4])
	}
	h := Header{
		Codec:    ID(b[5]),
		Seq:      uint64(binary.LittleEndian.Uint32(b[8:12])),
		Checksum: binary.LittleEndian.Uint32(b[12:16]),
		Off:      int64(binary.LittleEndian.Uint64(b[16:24])),
		RawLen:   binary.LittleEndian.Uint32(b[24:28]),
		EncLen:   binary.LittleEndian.Uint32(b[28:32]),
	}
	if h.Off < 0 || h.Off > MaxLogicalOff {
		return Header{}, fmt.Errorf("%w: implausible logical offset %d", ErrCorrupt, h.Off)
	}
	return h, nil
}

// Sniff reports whether b begins with the frame container magic.
func Sniff(b []byte) bool {
	return len(b) >= len(Magic) && [4]byte(b[:4]) == Magic
}

// EncodeFrame encodes src as one frame — header, with the CRC32-C of src,
// plus payload — appended to dst, and returns the extended slice with the
// header describing it. When c does not shrink the payload
// (incompressible data), the frame is stored raw instead, so a frame's
// encoded length never exceeds its raw length: compression can only save
// backend IO, never amplify it beyond the fixed header.
func EncodeFrame(c Codec, seq uint64, off int64, src, dst []byte) ([]byte, Header, error) {
	if int64(len(src)) > MaxPayload {
		return dst, Header{}, fmt.Errorf("codec: frame payload %d exceeds %d bytes", len(src), int64(MaxPayload))
	}
	if off < 0 || off > MaxLogicalOff {
		return dst, Header{}, fmt.Errorf("codec: frame offset %d out of range [0, %d]", off, int64(MaxLogicalOff))
	}
	if seq > MaxSeq {
		return dst, Header{}, fmt.Errorf("codec: frame sequence %d exceeds %d", seq, uint64(MaxSeq))
	}
	h := Header{Codec: c.ID(), Seq: seq, Checksum: Checksum(src), Off: off, RawLen: uint32(len(src))}
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
// registry, so any mount can read any registered codec's frames. The
// decoded bytes are verified against the header's CRC32-C — a mismatch
// returns ErrChecksum — so every decode path (reads, prefetch, salvage,
// scrub, compaction) proves payload integrity, not just decodability.
// The codec takes the CRC as it writes each piece of the output, so a
// frame is not read back from memory to be verified; on any error
// DecodeFrame returns dst, never the bytes it decoded.
func DecodeFrame(h Header, payload, dst []byte) ([]byte, error) {
	if len(payload) != int(h.EncLen) {
		return dst, fmt.Errorf("%w: payload length %d, header says %d", ErrCorrupt, len(payload), h.EncLen)
	}
	c, err := ByID(h.Codec)
	if err != nil {
		return dst, err
	}
	base := len(dst)
	out, sum, err := c.decodeSum(dst, payload, int64(h.RawLen))
	if err != nil {
		return dst, err
	}
	if len(out)-base != int(h.RawLen) {
		return dst, fmt.Errorf("%w: decoded %d bytes, header says %d", ErrCorrupt, len(out)-base, h.RawLen)
	}
	if sum != h.Checksum {
		return dst, fmt.Errorf("%w: crc32c %08x, header says %08x", ErrChecksum, sum, h.Checksum)
	}
	return out, nil
}

// sumPiece is the most a decode writes before it sums what it wrote. A
// piece this small is still in cache when the CRC reads it, where a whole
// 4 MiB frame summed after the decode has to come back from memory.
const sumPiece = 16 << 10

// copySum copies src into dst, which is as long, sumPiece bytes at a time,
// and folds each piece into crc right after copying it.
func copySum(dst, src []byte, crc uint32) uint32 {
	for off := 0; off < len(src); off += sumPiece {
		n := copy(dst[off:], src[off:min(off+sumPiece, len(src))])
		crc = crc32.Update(crc, castagnoli, dst[off:off+n])
	}
	return crc
}
