package client_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"crfs/internal/client"
	"crfs/internal/osfs"
	"crfs/internal/server"
)

// fakeGetServer speaks just enough protocol v2 to answer every GET with
// body, cut into data frames of the given size — sizes a real crfsd does
// not send but the protocol allows.
func fakeGetServer(t *testing.T, body []byte, frame int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		if _, err := io.ReadFull(br, make([]byte, len(server.HelloLine))); err != nil {
			return
		}
		server.WriteFrame(c, server.FrameHello, 0, []byte("crfsd/2 maxinflight=8"))
		for {
			hdr, _, err := server.ReadFrame(br, nil)
			if err != nil {
				return
			}
			bw := bufio.NewWriter(c)
			for off := 0; off < len(body); off += frame {
				server.WriteFrame(bw, server.FrameData, hdr.ReqID, body[off:min(off+frame, len(body))])
			}
			server.WriteFrame(bw, server.FrameEnd, hdr.ReqID, []byte(fmt.Sprintf("OK %d", len(body))))
			if bw.Flush() != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestGetAcceptsAnyFrameSize: the client restores the right bytes from a
// server that answers in 1-byte frames and from one that answers in
// frames of the protocol maximum, four times the size it sends itself.
func TestGetAcceptsAnyFrameSize(t *testing.T) {
	for _, tc := range []struct{ size, frame int }{
		{3000, 1},
		{3*server.MaxFramePayload + 5, server.MaxFramePayload},
	} {
		want := make([]byte, tc.size)
		for i := range want {
			want[i] = byte(i*7 + i>>8)
		}
		c, err := client.Dial(fakeGetServer(t, want, tc.frame), client.Config{IOTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		n, err := c.Get("img", &got)
		c.Close()
		if err != nil || n != int64(tc.size) || !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%d-byte frames: n=%d err=%v equal=%v", tc.frame, n, err, bytes.Equal(got.Bytes(), want))
		}
	}
}

// loopback is one daemon over a mount on a real directory (memfs would
// dominate both time and allocations) and one client connection to it.
func loopback(tb testing.TB) *client.Client {
	tb.Helper()
	back, err := osfs.New(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	return dialDaemon(tb, startDaemon(tb, back))
}

func dialDaemon(tb testing.TB, addr string) *client.Client {
	tb.Helper()
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// sliceSink restores into a preallocated buffer, so the sink itself
// allocates nothing.
type sliceSink struct {
	buf []byte
	n   int
}

func (w *sliceSink) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.buf) {
		return 0, io.ErrShortBuffer
	}
	w.n += copy(w.buf[w.n:], p)
	return len(p), nil
}

const benchObject = 32 << 20

func benchBody() []byte {
	body := make([]byte, benchObject)
	for i := range body {
		body[i] = byte(i ^ i>>11)
	}
	return body
}

func BenchmarkPutLoopback(b *testing.B) {
	c := loopback(b)
	body := benchBody()
	var r bytes.Reader
	b.SetBytes(benchObject)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if err := c.Put("ckpt", &r, benchObject); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetLoopback(b *testing.B) {
	c := loopback(b)
	body := benchBody()
	if err := c.Put("ckpt", bytes.NewReader(body), benchObject); err != nil {
		b.Fatal(err)
	}
	sink := sliceSink{buf: make([]byte, benchObject)}
	b.SetBytes(benchObject)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.n = 0
		if _, err := c.Get("ckpt", &sink); err != nil {
			b.Fatal(err)
		}
	}
}

// maxWireAllocKiBPerMiB is the CI floor of ROADMAP direction 2: what the
// whole loopback path — client, wire, daemon, mount — may allocate per MiB
// it moves. Fresh frame buffers alone would be 1024 KiB per MiB and
// direction, so the floor fails on the first stage that stops reusing.
const maxWireAllocKiBPerMiB = 16

// TestWireAllocsPerMiB moves 32 MiB each way over loopback after a
// warm-up and holds the process-wide allocation count to the floor.
func TestWireAllocsPerMiB(t *testing.T) {
	c := loopback(t)
	body := benchBody()
	sink := sliceSink{buf: make([]byte, benchObject)}
	var r bytes.Reader
	cycle := func() {
		r.Reset(body)
		if err := c.Put("ckpt", &r, benchObject); err != nil {
			t.Fatal(err)
		}
		sink.n = 0
		if _, err := c.Get("ckpt", &sink); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: fills the free list, opens the mount's pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	if !bytes.Equal(sink.buf, body) {
		t.Fatal("restored bytes differ")
	}
	perMiB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (2 * benchObject >> 20)
	t.Logf("%.2f KiB allocated per MiB moved", perMiB)
	if perMiB > maxWireAllocKiBPerMiB {
		t.Fatalf("%.1f KiB allocated per MiB moved, floor is %d", perMiB, maxWireAllocKiBPerMiB)
	}
}
