package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
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
// Decode can tell the two layouts apart by it.
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

// flatPage reports whether p begins with a full page whose byte histogram
// is as even as random data's. A short tail is never flat.
func flatPage(p []byte) bool {
	if len(p) < pageSize {
		return false
	}
	// Four interleaved histograms: a run of equal bytes would otherwise
	// make every increment wait for the one before it.
	var h [4][256]uint32
	for i := 0; i < pageSize; i += 4 {
		h[0][p[i]]++
		h[1][p[i+1]]++
		h[2][p[i+2]]++
		h[3][p[i+3]]++
	}
	sum := 0
	for b := range h[0] {
		n := int(h[0][b] + h[1][b] + h[2][b] + h[3][b])
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

// Decode inflates src into the spare capacity of dst — or into one new
// buffer of the declared size when dst is short — and then reads one byte
// more to prove the stream ends where the header says it does. A paged
// payload's flat pages are copied to their offsets and its stream is
// inflated straight into the ranges between them. src is in memory, so
// any inflater error is damage and wraps ErrCorrupt.
func (c *deflateCodec) Decode(dst, src []byte, rawLen int64) ([]byte, error) {
	if rawLen > maxInflate*int64(len(src)) {
		return dst, fmt.Errorf("%w: declared size %d impossible for a %d-byte deflate stream", ErrCorrupt, rawLen, len(src))
	}
	var bitmap, stored []byte
	stream, paged := src, len(src) > 0 && src[0] == pagedTag
	if paged {
		var err error
		if bitmap, stored, stream, err = splitPaged(src[1:], rawLen); err != nil {
			return dst, err
		}
	}
	base, end := len(dst), len(dst)+int(rawLen)
	out := slices.Grow(dst, int(rawLen))[:end]
	if paged && len(stored) == int(rawLen) { // every page flat, no stream
		copy(out[base:], stored)
		return out, nil
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
		return dst, fmt.Errorf("codec: deflate reset: %w", err)
	}
	for off := 0; off < int(rawLen); off += pageSize {
		run := nextFlat(bitmap, off, int(rawLen))
		switch _, err := io.ReadFull(z.fr, out[base+off:base+run]); err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return dst, fmt.Errorf("%w: deflate stream ends short of declared size %d", ErrCorrupt, rawLen)
		default:
			return dst, fmt.Errorf("%w: deflate decode: %w", ErrCorrupt, err)
		}
		if off = run; off < int(rawLen) {
			stored = stored[copy(out[base+off:base+off+pageSize], stored):]
		}
	}
	switch _, err := io.ReadFull(z.fr, z.end[:]); err {
	case io.EOF:
	case nil:
		return dst, fmt.Errorf("%w: deflate stream exceeds declared size %d", ErrCorrupt, rawLen)
	default:
		return dst, fmt.Errorf("%w: deflate decode: %w", ErrCorrupt, err)
	}
	if err := z.fr.Close(); err != nil {
		return dst, fmt.Errorf("codec: deflate close: %w", err)
	}
	return out, nil
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
