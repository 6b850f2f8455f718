package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// deflateCodec compresses chunks with stdlib DEFLATE. Encoder and decoder
// state is pooled: flate allocates ~64 KB of window per writer, far too
// much to rebuild for every 4 MB chunk crossing the IO workers.
type deflateCodec struct {
	writers sync.Pool // *deflater
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

// sliceWriter appends to a byte slice through the io.Writer interface,
// letting pooled flate writers emit straight into the caller's buffer.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// deflater is the pooled encode state: the level-6 flate writer and the
// sliceWriter it emits into, kept together so an encode into a presized
// dst allocates nothing.
type deflater struct {
	sw sliceWriter
	fw *flate.Writer
}

// encoder returns a pooled deflater, reset to start a new stream.
func (c *deflateCodec) encoder() (*deflater, error) {
	if d, ok := c.writers.Get().(*deflater); ok {
		d.fw.Reset(&d.sw)
		return d, nil
	}
	d := &deflater{}
	fw, err := flate.NewWriter(&d.sw, flate.DefaultCompression)
	if err != nil {
		return nil, fmt.Errorf("codec: deflate init: %w", err)
	}
	d.fw = fw
	return d, nil
}

// Encode appends one raw DEFLATE stream of src to dst, in runs of 4 KiB
// pages. A page whose bytes are as evenly spread as random data's (a flat
// page, see flatPage) cannot compress, so a run of flat pages skips
// DEFLATE's match search and goes out as stored blocks written here. Every
// other run goes through the pooled level-6 writer, reset before each run
// but the first (a match must not reach back across stored bytes the
// writer never saw) and ended with Flush, or with Close when it ends the
// stream. A src with no flat page is one run: a single Write and Close,
// byte for byte what the writer alone produces.
func (c *deflateCodec) Encode(dst, src []byte) ([]byte, error) {
	var d *deflater
	defer func() {
		if d != nil {
			d.sw.b = nil // don't retain dst
			c.writers.Put(d)
		}
	}()
	out, synced := dst, false // synced: out ends in a Flush's sync marker
	flat := flatPage(src)
	for off := 0; ; {
		end, nextFlat := runEnd(src, off, flat)
		last := end == len(src)
		if flat {
			out = appendStored(out, src[off:end], synced, last)
		} else {
			var err error
			if d == nil {
				if d, err = c.encoder(); err != nil {
					return dst, err
				}
			} else {
				d.fw.Reset(&d.sw)
			}
			d.sw.b = out
			if _, err = d.fw.Write(src[off:end]); err == nil {
				if last {
					err = d.fw.Close()
				} else {
					err = d.fw.Flush()
				}
			}
			if out = d.sw.b; err != nil {
				return dst, fmt.Errorf("codec: deflate encode: %w", err)
			}
		}
		if last {
			return out, nil
		}
		off, flat, synced = end, nextFlat, !flat
	}
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

// runEnd returns where the run of pages that starts at off, all of them
// flat or all not, ends, and whether the page there is flat.
func runEnd(src []byte, off int, flat bool) (int, bool) {
	for end := off + pageSize; end < len(src); end += pageSize {
		if f := flatPage(src[end:]); f != flat {
			return end, f
		}
	}
	return len(src), false
}

// maxStored is the most one stored block can carry (LEN is 16 bits).
const maxStored = 65535

// syncMarker is how a Flush ends the stream: the LEN/NLEN of an empty,
// non-final stored block, whose header bits precede it.
var syncMarker = []byte{0x00, 0x00, 0xff, 0xff}

// appendStored appends p as stored blocks of at most maxStored bytes, the
// last one final when final is set. When synced, out ends in a Flush's
// sync marker: the empty block it closes takes p's first piece, its
// LEN/NLEN overwritten, which saves that piece's five header bytes. The
// marker's header bits are not final; if that piece ends the stream, an
// empty final block follows it, as Close itself would write.
func appendStored(out, p []byte, synced, final bool) []byte {
	if synced && bytes.HasSuffix(out, syncMarker) {
		n := min(len(p), maxStored)
		out = appendLenData(out[:len(out)-len(syncMarker)], p[:n])
		if p = p[n:]; len(p) == 0 && final {
			return appendLenData(append(out, 1), nil)
		}
	}
	for len(p) > 0 {
		n := min(len(p), maxStored)
		hdr := byte(0) // BFINAL 0, BTYPE 00 (stored), then padding to the byte
		if final && n == len(p) {
			hdr = 1
		}
		out = appendLenData(append(out, hdr), p[:n])
		p = p[n:]
	}
	return out
}

// appendLenData appends a stored block's LEN, NLEN and data.
func appendLenData(out, p []byte) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p)))
	out = binary.LittleEndian.AppendUint16(out, ^uint16(len(p)))
	return append(out, p...)
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
// more to prove the stream ends where the header says it does. src is in
// memory, so any inflater error is damage and wraps ErrCorrupt.
func (c *deflateCodec) Decode(dst, src []byte, rawLen int64) ([]byte, error) {
	if rawLen > maxInflate*int64(len(src)) {
		return dst, fmt.Errorf("%w: declared size %d impossible for a %d-byte deflate stream", ErrCorrupt, rawLen, len(src))
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
	z.src.Reset(src)
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return dst, fmt.Errorf("codec: deflate reset: %w", err)
	}
	base, end := len(dst), len(dst)+int(rawLen)
	out := slices.Grow(dst, int(rawLen))[:end]
	for n := base; n < end; {
		m, err := z.fr.Read(out[n:])
		n += m
		if err == io.EOF && n < end {
			return dst, fmt.Errorf("%w: deflate stream is %d bytes, shorter than declared size %d", ErrCorrupt, n-base, rawLen)
		}
		if err != nil && err != io.EOF {
			return dst, fmt.Errorf("%w: deflate decode: %w", ErrCorrupt, err)
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
