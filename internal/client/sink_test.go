package client_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"crfs/internal/client"
	"crfs/internal/server"
)

// fakeGetServer speaks just enough protocol v2 to answer every GET with
// body, cut into data frames of the given size — sizes a real crfsd does
// not send but the protocol allows. When stray is not nil, every answer
// is preceded by a data frame carrying stray for a request id the client
// never issued, and followed by one for the request it has just ended.
// It serves any number of connections.
func fakeGetServer(t *testing.T, body []byte, frame int, stray []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serveGets(c, body, frame, stray)
		}
	}()
	return ln.Addr().String()
}

func serveGets(c net.Conn, body []byte, frame int, stray []byte) {
	defer c.Close()
	br := bufio.NewReader(c)
	if _, err := io.ReadFull(br, make([]byte, len(server.HelloLine))); err != nil {
		return
	}
	server.WriteFrame(c, server.FrameHello, 0, []byte("crfsd/2 maxinflight=8"))
	for {
		hdr, _, err := server.ReadFrame(br)
		if err != nil {
			return
		}
		bw := bufio.NewWriter(c)
		if stray != nil {
			server.WriteFrame(bw, server.FrameData, hdr.ReqID+1000, stray)
		}
		for off := 0; off < len(body); off += frame {
			server.WriteFrame(bw, server.FrameData, hdr.ReqID, body[off:min(off+frame, len(body))])
		}
		server.WriteFrame(bw, server.FrameEnd, hdr.ReqID, []byte(fmt.Sprintf("OK %d", len(body))))
		if stray != nil {
			server.WriteFrame(bw, server.FrameData, hdr.ReqID, stray)
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// bufSink is a client.ReadSink over a fixed buffer, shaped like the
// striped store's chunk sink: bytes land in buf while it has room, and
// the rest reach Write, which counts them without keeping them — or,
// with fail set, fails after a pause long enough for the demux reader to
// route the next frame and wait for it to be read.
type bufSink struct {
	buf    []byte
	landed int // bytes that landed in buf
	fail   error

	written, writes int // bytes and calls that reached Write
}

func (w *bufSink) Next() []byte { return w.buf[w.landed:] }

func (w *bufSink) Landed(n int) { w.landed += n }

func (w *bufSink) Write(p []byte) (int, error) {
	if w.fail != nil {
		time.Sleep(50 * time.Millisecond)
		return 0, w.fail
	}
	w.written += len(p)
	w.writes++
	return len(p), nil
}

func pattern(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestGetAcceptsAnyFrameSize: the client restores the right bytes from a
// server that answers in 1-byte frames and from one that answers in
// frames of the protocol maximum, four times the size it sends itself —
// into a plain writer, and into a sink that lends its memory, whether
// that memory holds the whole body or only its first third. A lent
// buffer takes the bytes it has room for and Write sees only the rest,
// one call per frame that goes past the buffer.
func TestGetAcceptsAnyFrameSize(t *testing.T) {
	for _, tc := range []struct{ size, frame int }{
		{3000, 1},
		{3*server.MaxFramePayload + 5, server.MaxFramePayload},
	} {
		want := pattern(tc.size)
		c, err := client.Dial(fakeGetServer(t, want, tc.frame, nil), client.Config{IOTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		n, err := c.Get("img", &got)
		if err != nil || n != int64(tc.size) || !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%d-byte frames into a buffer: n=%d err=%v equal=%v", tc.frame, n, err, bytes.Equal(got.Bytes(), want))
		}
		for _, room := range []int{tc.size, tc.size / 3} {
			sink := &bufSink{buf: make([]byte, room)}
			n, err := c.Get("img", sink)
			past := 0 // frames that end past the lent memory
			for end := tc.frame; end < tc.size+tc.frame; end += tc.frame {
				if min(end, tc.size) > room {
					past++
				}
			}
			if err != nil || n != int64(tc.size) || sink.landed != room || !bytes.Equal(sink.buf, want[:room]) {
				t.Errorf("%d-byte frames into %d lent bytes: n=%d err=%v landed=%d equal=%v",
					tc.frame, room, n, err, sink.landed, bytes.Equal(sink.buf, want[:room]))
			}
			if sink.written != tc.size-room || sink.writes != past {
				t.Errorf("%d-byte frames into %d lent bytes: %d bytes in %d Writes, want %d in %d",
					tc.frame, room, sink.written, sink.writes, tc.size-room, past)
			}
		}
		c.Close()
	}
}

// goroutinesBack fails the test unless the goroutine count falls back to
// before within a few seconds.
func goroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines alive, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGetSinkFailsMidFrame: a sink that takes the first 100 bytes of a
// 1 MiB frame into its memory and then fails the Write of the rest tears
// the session down. The GET reports the failure and the 100 bytes, the
// next request fails with the same cause, the demux reader — by then
// waiting for the next frame to be read — does not wedge, and once the
// Client is closed no goroutine of it is left.
func TestGetSinkFailsMidFrame(t *testing.T) {
	want := pattern(4 * server.MaxFramePayload)
	addr := fakeGetServer(t, want, server.MaxFramePayload, nil)
	before := runtime.NumGoroutine()
	c, err := client.Dial(addr, client.Config{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("sink full")
	n, err := c.Get("img", &bufSink{buf: make([]byte, 100), fail: errFull})
	if !errors.Is(err, errFull) || n != 100 {
		t.Fatalf("GET into a sink failing mid-frame: n=%d err=%v", n, err)
	}
	if _, err := c.Get("img", &bufSink{buf: make([]byte, len(want))}); !errors.Is(err, errFull) {
		t.Fatalf("GET after the sink failed: %v, want the torn-down session's %v", err, errFull)
	}
	c.Close()
	goroutinesBack(t, before)
}

// TestGetSkipsStrayData: a data frame for a request the client is not
// waiting on — one it never issued, or one that has just ended — is read
// past, payload and all, and the answers around it reach the requests
// they belong to intact, one GET after another on the same session.
func TestGetSkipsStrayData(t *testing.T) {
	want := pattern(3*server.DataChunk + 17)
	stray := bytes.Repeat([]byte{0xEE}, 70_000) // spans many of the reader's buffers
	c, err := client.Dial(fakeGetServer(t, want, server.DataChunk, stray), client.Config{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			var got bytes.Buffer
			if n, err := c.Get("img", &got); err != nil || n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
				done <- fmt.Errorf("GET %d into a buffer: n=%d err=%v", i, n, err)
				return
			}
			sink := &bufSink{buf: make([]byte, len(want))}
			if n, err := c.Get("img", sink); err != nil || n != int64(len(want)) || !bytes.Equal(sink.buf, want) {
				done <- fmt.Errorf("GET %d into lent memory: n=%d err=%v", i, n, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GETs around stray data frames wedged")
	}
}

// countingFile is an *os.File whose Writes are counted. Its ReadFrom is
// the file's own, so a client that reached for io.ReaderFrom would copy
// the body without one counted Write.
type countingFile struct {
	*os.File
	writes int
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.writes++
	return f.File.Write(p)
}

// TestGetOneWritePerFrameToFile: a file is not a sink that lends memory,
// so it gets exactly one Write per data frame, whatever the frame size.
func TestGetOneWritePerFrameToFile(t *testing.T) {
	for _, frame := range []int{1000, server.DataChunk} {
		want := pattern(5*server.DataChunk + 1234)
		c, err := client.Dial(fakeGetServer(t, want, frame, nil), client.Config{IOTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "img")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		sink := &countingFile{File: f}
		n, err := c.Get("img", sink)
		c.Close()
		f.Close()
		if err != nil || n != int64(len(want)) {
			t.Fatalf("%d-byte frames into a file: n=%d err=%v", frame, n, err)
		}
		if frames := (len(want) + frame - 1) / frame; sink.writes != frames {
			t.Errorf("%d-byte frames into a file: %d Writes for %d data frames", frame, sink.writes, frames)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%d-byte frames into a file: the file differs (err %v)", frame, err)
		}
	}
}

// TestGetCutAfterDataHeader: a connection that closes right after a data
// frame's header, before any byte of its payload, truncated the body the
// header promised. The GET must fail with io.ErrUnexpectedEOF, never
// with an io.EOF a caller could take for a clean end — into a plain
// writer and into a sink that lends its memory alike.
func TestGetCutAfterDataHeader(t *testing.T) {
	first := pattern(1000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				if _, err := io.ReadFull(br, make([]byte, len(server.HelloLine))); err != nil {
					return
				}
				server.WriteFrame(c, server.FrameHello, 0, []byte("crfsd/2 maxinflight=8"))
				hdr, _, err := server.ReadFrame(br)
				if err != nil {
					return
				}
				var out bytes.Buffer
				server.WriteFrame(&out, server.FrameData, hdr.ReqID, first)
				server.WriteFrame(&out, server.FrameData, hdr.ReqID, first)
				c.Write(out.Bytes()[:len(first)+2*server.HeaderLen])
			}()
		}
	}()
	for _, w := range []io.Writer{new(bytes.Buffer), &bufSink{buf: make([]byte, 4000)}} {
		c, err := client.Dial(ln.Addr().String(), client.Config{IOTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.Get("img", w)
		c.Close()
		if n != int64(len(first)) || !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			t.Fatalf("%T: GET cut after a data header: n=%d err=%v; want %d bytes and io.ErrUnexpectedEOF", w, n, err, len(first))
		}
	}
}
