package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"sync"
)

// deflateCodec compresses chunks with stdlib DEFLATE. Encoder and decoder
// state is pooled: flate allocates ~64 KB of window per writer, far too
// much to rebuild for every 4 MB chunk crossing the IO workers.
type deflateCodec struct {
	writers sync.Pool // *flate.Writer
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

func (c *deflateCodec) Encode(dst, src []byte) ([]byte, error) {
	sw := &sliceWriter{b: dst}
	var fw *flate.Writer
	if v := c.writers.Get(); v != nil {
		fw = v.(*flate.Writer)
		fw.Reset(sw)
	} else {
		var err error
		fw, err = flate.NewWriter(sw, flate.DefaultCompression)
		if err != nil {
			return dst, fmt.Errorf("codec: deflate init: %w", err)
		}
	}
	defer c.writers.Put(fw)
	if _, err := fw.Write(src); err != nil {
		return dst, fmt.Errorf("codec: deflate encode: %w", err)
	}
	if err := fw.Close(); err != nil {
		return dst, fmt.Errorf("codec: deflate flush: %w", err)
	}
	return sw.b, nil
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
// more to prove the stream ends where the header says it does.
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
			return dst, fmt.Errorf("codec: deflate decode: %w", err)
		}
	}
	switch _, err := io.ReadFull(z.fr, z.end[:]); err {
	case io.EOF:
	case nil:
		return dst, fmt.Errorf("%w: deflate stream exceeds declared size %d", ErrCorrupt, rawLen)
	default:
		return dst, fmt.Errorf("codec: deflate decode: %w", err)
	}
	if err := z.fr.Close(); err != nil {
		return dst, fmt.Errorf("codec: deflate close: %w", err)
	}
	return out, nil
}
