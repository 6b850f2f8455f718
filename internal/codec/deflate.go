package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"sync"
)

// deflateCodec compresses chunks as DEFLATE: it writes streams with an
// encoder of its own (encoder.go) and reads them with the stdlib inflater.
// Both states are pooled, one per IO worker at a time: an encoder holds
// ≈ 460 KiB, a hash table and window chain too large to allocate for every
// 4 MiB chunk, and a warm one encodes into a presized dst with no
// allocation.
type deflateCodec struct {
	writers sync.Pool // *encoder
	readers sync.Pool // *inflater
}

func newDeflate() *deflateCodec { return &deflateCodec{} }

// Deflate returns the DEFLATE codec.
func Deflate() Codec { return mustByID(DeflateID) }

func mustByID(id ID) Codec {
	c, err := ByID(id)
	if err != nil {
		panic(err)
	}
	return c
}

func (*deflateCodec) ID() ID       { return DeflateID }
func (*deflateCodec) Name() string { return "deflate" }

// pagedTag opens a paged payload. Its BTYPE bits (1–2) are 11, the block
// type RFC 1951 reserves, so no DEFLATE stream starts with this byte and
// decodeSum can tell the two layouts apart by it.
const pagedTag = 0x06

// Encode appends src to dst in one of two layouts, classifying it in 4 KiB
// pages. A src with no flat page (see flatPage) is one raw DEFLATE stream.
// A page as evenly spread as random data cannot compress, so a src with a
// flat page is paged: pagedTag, a bitmap with bit i (LSB first) set when
// page i is flat, the flat pages verbatim in page order, and then one
// stream of every other page, which matches may reach across. When every
// page is flat the stream is left out; the payload is then longer than src
// and EncodeFrame's raw bailout takes it.
func (c *deflateCodec) Encode(dst, src []byte) ([]byte, error) {
	bm, n := len(dst)+1, (len(src)+8*pageSize-1)/(8*pageSize)
	out := append(append(dst, pagedTag), make([]byte, n)...)
	for off := 0; off+pageSize <= len(src); off += pageSize {
		if flatPage(src[off:]) {
			out[bm+off/pageSize/8] |= 1 << (off / pageSize % 8)
			out = append(out, src[off:off+pageSize]...)
		}
	}
	bitmap := out[bm : bm+n]
	switch len(out) - bm - n {
	case 0: // no flat page: one plain stream
		out, bitmap = dst, nil
	case len(src):
		return out, nil
	}
	e, _ := c.writers.Get().(*encoder)
	if e == nil {
		e = new(encoder)
	}
	out = e.stream(out, src, bitmap)
	c.writers.Put(e)
	return out, nil
}

// nextFlat returns the offset of the first page at or after off that
// bitmap marks flat, or n when there is none.
func nextFlat(bitmap []byte, off, n int) int {
	for ; off < n; off += pageSize {
		if i := off / pageSize; i/8 < len(bitmap) && bitmap[i/8]>>(i%8)&1 != 0 {
			return off
		}
	}
	return n
}

// pageSize is the unit Encode classifies src in.
const pageSize = 4096

// flatLimit bounds Σcount² over a page's byte histogram for the page to
// read as flat: n²/256 + 2n for n = pageSize. Uniform random bytes average
// n²/256 + n·255/256 with a standard deviation near 360, so they clear it
// by eleven deviations; text, zeros and a page made of four copies of one
// block sit far above it. Two copies of one random block straddle it (see
// TestFlatPageRates).
const flatLimit = pageSize*pageSize/256 + 2*pageSize

// flatPage decides most pages from a sample: sliceLen bytes at the start
// of each sampleStride, m = 512 bytes. Over m uniform bytes Σs² averages
// m²/256 + m·255/256 (1,534), standard deviation 45. Below sampleFlat (5.7
// deviations above that mean) a page is flat, above sampleSolid (34) it is
// not; in between, its full histogram decides against flatLimit.
const (
	sliceLen     = 64
	sampleStride = pageSize / 8
	sampleLen    = pageSize / sampleStride * sliceLen
	sampleFlat   = sampleLen*sampleLen/256 + 3*sampleLen/2
	sampleSolid  = sampleLen*sampleLen/256 + 4*sampleLen
)

// flatPage reports whether p begins with a full page whose byte histogram
// is as even as random data's; a short tail is never flat. Σs² = m + 2 ×
// pairs of equal bytes, so a run of equal bytes, whose increments each
// wait for the one before, ends the sample within one slice.
func flatPage(p []byte) bool {
	if len(p) < pageSize {
		return false
	}
	var h [256]uint16
	pairs := 0
	for off := 0; off < pageSize; off += sampleStride {
		s := (*[sliceLen]byte)(p[off:])
		for i := 0; i < sliceLen; i += 2 { // two a turn: 1.8× faster than one
			c0 := h[s[i]]
			h[s[i]] = c0 + 1
			c1 := h[s[i+1]]
			h[s[i+1]] = c1 + 1
			pairs += int(c0) + int(c1)
		}
		if sampleLen+2*pairs > sampleSolid {
			return false
		}
	}
	return sampleLen+2*pairs < sampleFlat || flatFull(p, &h)
}

// flatFull reports whether Σcount² over the page p begins with is under
// flatLimit, given the sampled slices' counts. The bytes between them go
// to four interleaved tables, so that a run does not stall every count.
func flatFull(p []byte, sample *[256]uint16) bool {
	var h [4][256]uint16
	for off := sliceLen; off < pageSize; off += sampleStride {
		gap := (*[sampleStride - sliceLen]byte)(p[off:])
		for i := 0; i < len(gap); i += 4 {
			h[0][gap[i]]++
			h[1][gap[i+1]]++
			h[2][gap[i+2]]++
			h[3][gap[i+3]]++
		}
	}
	sum := 0
	for b, s := range sample {
		n := int(s + h[0][b] + h[1][b] + h[2][b] + h[3][b])
		sum += n * n
	}
	return sum < flatLimit
}

// inflater is the pooled decode state: the flate reader and the
// bytes.Reader it pulls the payload through, kept together so a decode
// into a presized buffer allocates nothing.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // flate reader over &src; implements flate.Resetter
	end [1]byte       // where the byte past the declared size would land
}

// maxInflate is DEFLATE's best case: a 258-byte match costs two bits.
// A header declaring more than this many raw bytes per payload byte lies,
// and is refused before a buffer is sized from it.
const maxInflate = 1032

// decodeSum inflates src into the spare capacity of dst — or into one new
// buffer of the declared size when dst is short — and then reads one byte
// more to prove the stream ends where the header says it does. A paged
// payload's flat pages are copied to their offsets and its stream is
// inflated straight into the ranges between them. Each run is summed
// sumPiece bytes at a time as it is inflated, and each flat page as it is
// copied. src is in memory, so any inflater error is damage and wraps
// ErrCorrupt.
func (c *deflateCodec) decodeSum(dst, src []byte, rawLen int64) ([]byte, uint32, error) {
	if rawLen > maxInflate*int64(len(src)) {
		return dst, 0, fmt.Errorf("%w: declared size %d impossible for a %d-byte deflate stream", ErrCorrupt, rawLen, len(src))
	}
	var bitmap, stored []byte
	stream, paged := src, len(src) > 0 && src[0] == pagedTag
	if paged {
		var err error
		if bitmap, stored, stream, err = splitPaged(src[1:], rawLen); err != nil {
			return dst, 0, err
		}
	}
	base, end := len(dst), len(dst)+int(rawLen)
	out := slices.Grow(dst, int(rawLen))[:end]
	if paged && len(stored) == int(rawLen) { // every page flat, no stream
		return out, copySum(out[base:], stored, 0), nil
	}
	z, _ := c.readers.Get().(*inflater)
	if z == nil {
		z = &inflater{}
		z.fr = flate.NewReader(&z.src)
	}
	defer func() {
		z.src.Reset(nil) // don't retain src
		c.readers.Put(z)
	}()
	z.src.Reset(stream)
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return dst, 0, fmt.Errorf("codec: deflate reset: %w", err)
	}
	var crc uint32
	for off := 0; off < int(rawLen); off += pageSize {
		run := base + nextFlat(bitmap, off, int(rawLen))
		for at := base + off; at < run; {
			piece := out[at:min(at+sumPiece, run)]
			at += len(piece)
			switch _, err := io.ReadFull(z.fr, piece); err {
			case nil:
			case io.EOF, io.ErrUnexpectedEOF:
				return dst, 0, fmt.Errorf("%w: deflate stream ends short of declared size %d", ErrCorrupt, rawLen)
			default:
				return dst, 0, fmt.Errorf("%w: deflate decode: %w", ErrCorrupt, err)
			}
			crc = crc32.Update(crc, castagnoli, piece)
		}
		if off = run - base; off < int(rawLen) {
			crc = copySum(out[run:run+pageSize], stored[:pageSize], crc)
			stored = stored[pageSize:]
		}
	}
	switch _, err := io.ReadFull(z.fr, z.end[:]); err {
	case io.EOF:
	case nil:
		return dst, 0, fmt.Errorf("%w: deflate stream exceeds declared size %d", ErrCorrupt, rawLen)
	default:
		return dst, 0, fmt.Errorf("%w: deflate decode: %w", ErrCorrupt, err)
	}
	if err := z.fr.Close(); err != nil {
		return dst, 0, fmt.Errorf("codec: deflate close: %w", err)
	}
	return out, crc, nil
}

// splitPaged splits a paged payload, past its tag, into its bitmap, its
// flat pages and its stream. A shape Encode never writes is ErrCorrupt: a
// payload too short for its bitmap or its flat pages, a bit set for a
// short tail page or past the last page, no bit set, or a stream beside
// pages that are all flat.
func splitPaged(p []byte, rawLen int64) (bitmap, stored, stream []byte, err error) {
	full, n := int(rawLen/pageSize), int((rawLen+8*pageSize-1)/(8*pageSize))
	if len(p) < n {
		return nil, nil, nil, fmt.Errorf("%w: paged deflate payload of %d bytes, its bitmap needs %d", ErrCorrupt, len(p), n)
	}
	bitmap, flat := p[:n], 0
	for i, b := range bitmap {
		if lo := full - 8*i; lo < 8 && b>>max(lo, 0) != 0 {
			return nil, nil, nil, fmt.Errorf("%w: paged deflate bitmap marks a page flat past the last full one", ErrCorrupt)
		}
		flat += bits.OnesCount8(b)
	}
	if flat == 0 {
		return nil, nil, nil, fmt.Errorf("%w: paged deflate bitmap marks no page flat", ErrCorrupt)
	}
	if len(p)-n < flat*pageSize {
		return nil, nil, nil, fmt.Errorf("%w: paged deflate payload of %d bytes cannot hold its %d flat pages", ErrCorrupt, len(p), flat)
	}
	stored, stream = p[n:n+flat*pageSize], p[n+flat*pageSize:]
	if len(stored) == int(rawLen) && len(stream) != 0 {
		return nil, nil, nil, fmt.Errorf("%w: paged deflate payload carries a stream beside pages that are all flat", ErrCorrupt)
	}
	return bitmap, stored, stream, nil
}
