package client_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"crfs/internal/client"
	"crfs/internal/server"
)

// piecesBody is a body that hands its bytes over through WriteTo, piece
// bytes at a time, each from one scratch buffer it overwrites with 0xDB
// as soon as Write returns — so a destination that kept a piece past its
// Write ships wrong bytes — and calls onPiece (when set) after each
// piece. With stop > 0 it stops after stop bytes and returns err — a nil
// err makes it run short. Read fails: Put is meant to take this body
// through WriteTo.
type piecesBody struct {
	b       []byte
	piece   int
	stop    int
	err     error
	onPiece func()
}

var errReadCalled = errors.New("piecesBody: Read called; the body is handed over by WriteTo")

func (r *piecesBody) Read([]byte) (int, error) { return 0, errReadCalled }

func (r *piecesBody) WriteTo(w io.Writer) (int64, error) {
	b := r.b
	if r.stop > 0 {
		b = b[:r.stop]
	}
	scratch := make([]byte, r.piece)
	var n int64
	for len(b) > 0 {
		piece := scratch[:copy(scratch, b)]
		m, err := w.Write(piece)
		for i := range piece {
			piece[i] = 0xDB
		}
		n += int64(m)
		b = b[m:]
		if err != nil {
			return n, err
		}
		if r.onPiece != nil {
			r.onPiece()
		}
	}
	return n, r.err
}

// frameCounter forwards connections to a backend and records the data
// frames clients send through it: how many, and the largest payload.
type frameCounter struct {
	ln      net.Listener
	backend string

	mu              sync.Mutex
	frames, largest int
}

func newFrameCounter(t *testing.T, backend string) *frameCounter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{ln: ln, backend: backend}
	go fc.serve()
	t.Cleanup(func() { ln.Close() })
	return fc
}

func (fc *frameCounter) Addr() string { return fc.ln.Addr().String() }

func (fc *frameCounter) serve() {
	for {
		c, err := fc.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", fc.backend)
		if err != nil {
			c.Close()
			continue
		}
		go func() { io.Copy(c, b); c.Close(); b.Close() }()
		go func() {
			defer b.Close()
			defer c.Close()
			br := bufio.NewReader(c)
			hello := make([]byte, len(server.HelloLine))
			if _, err := io.ReadFull(br, hello); err != nil {
				return
			}
			b.Write(hello)
			for {
				hdr, payload, err := server.ReadFrame(br)
				if err != nil {
					return
				}
				if hdr.Type == server.FrameData {
					fc.mu.Lock()
					fc.frames++
					fc.largest = max(fc.largest, len(payload))
					fc.mu.Unlock()
				}
				if server.WriteFrame(b, hdr.Type, hdr.ReqID, payload) != nil {
					return
				}
			}
		}()
	}
}

// take returns the counts since the last take and resets them.
func (fc *frameCounter) take() (frames, largest int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	frames, largest = fc.frames, fc.largest
	fc.frames, fc.largest = 0, 0
	return frames, largest
}

// TestPutBodyShapes: a body handed over whole, in 1 KiB pieces, in
// pieces of 1.5 frames, from a file, or through a plain reader is stored
// byte-identically, in data frames no larger than DataChunk and no more
// of them than ⌈size / DataChunk⌉ — a sink that sent each piece as it
// came would send more, shorter frames. A body longer than its declared
// size stores exactly that size and leaves the rest unread.
func TestPutBodyShapes(t *testing.T) {
	fc := newFrameCounter(t, startServer(t))
	c := dialDaemon(t, fc.Addr())
	const size = 5*server.DataChunk + 1234
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i*13 + i>>9)
	}
	file := filepath.Join(t.TempDir(), "body")
	if err := os.WriteFile(file, body, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body func() io.Reader
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(body) }},
		{"pieces-1KiB", func() io.Reader { return &piecesBody{b: body, piece: 1 << 10} }},
		{"pieces-1.5-frames", func() io.Reader { return &piecesBody{b: body, piece: server.DataChunk * 3 / 2} }},
		{"os.File", func() io.Reader {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}},
		{"plain-reader", func() io.Reader { return io.LimitReader(bytes.NewReader(body), size) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc.take()
			if err := c.Put("ckpt", tc.body(), size); err != nil {
				t.Fatal(err)
			}
			const most = (size + server.DataChunk - 1) / server.DataChunk
			if frames, largest := fc.take(); frames > most || largest > server.DataChunk {
				t.Errorf("%d data frames, largest %d bytes; want at most %d, each at most %d",
					frames, largest, most, server.DataChunk)
			}
			mustRead(t, c, "ckpt", body)
		})
	}

	t.Run("longer-than-declared", func(t *testing.T) {
		const declared = 2*server.DataChunk + 7
		r := bytes.NewReader(body)
		if err := c.Put("ckpt", r, declared); err != nil {
			t.Fatal(err)
		}
		if r.Len() != size-declared {
			t.Errorf("%d body bytes left unread, want %d", r.Len(), size-declared)
		}
		if err := c.Put("pieces", &piecesBody{b: body, piece: 100 << 10}, declared); err != nil {
			t.Fatal(err)
		}
		mustRead(t, c, "ckpt", body[:declared])
		mustRead(t, c, "pieces", body[:declared])
	})
}

func mustRead(t *testing.T, c *client.Client, name string, want []byte) {
	t.Helper()
	var got bytes.Buffer
	if n, err := c.Get(name, &got); err != nil || n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("GET %s: n=%d err=%v, want %d identical bytes", name, n, err, len(want))
	}
}
