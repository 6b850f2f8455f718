package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"crfs/internal/client"
	"crfs/internal/core"
	"crfs/internal/memfs"
	"crfs/internal/server"
	"crfs/internal/vfs"
)

// noLeaks fails the test if, once its other cleanups (server drain,
// client close) have run, more goroutines are alive than when it began.
func noLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines alive, %d before the test:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// namedPattern is testPattern keyed by name, so concurrent objects differ.
func namedPattern(name string, size int) []byte {
	out := make([]byte, size)
	fillPattern(out, name, 7)
	return out
}

// readThrough reads a file via the mount's own API (not the wire).
func readThrough(t *testing.T, fs *core.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name, vfs.ReadOnly)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, info.Size)
	if n, err := f.ReadAt(buf, 0); n != len(buf) || (err != nil && !errors.Is(err, io.EOF)) {
		t.Fatalf("read %s: %d of %d bytes, %v", name, n, len(buf), err)
	}
	return buf
}

// TestOwnedBuffersRoundTrips: objects around every frame-size boundary,
// four requests at a time on one connection, must commit and come back
// byte-identical.
func TestOwnedBuffersRoundTrips(t *testing.T) {
	noLeaks(t)
	e := newEnv(t, nil, server.Config{})
	c := e.client(t)
	sizes := []int{0, 1, server.DataChunk - 1, server.DataChunk, server.DataChunk + 1, 5 << 20}
	for _, size := range sizes {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				name := fmt.Sprintf("rt/%d-%d", size, w)
				want := namedPattern(name, size)
				if err := c.Put(name, bytes.NewReader(want), int64(size)); err != nil {
					t.Errorf("PUT %s: %v", name, err)
					return
				}
				if !bytes.Equal(readThrough(t, e.fs, name), want) {
					t.Errorf("PUT %s committed wrong bytes", name)
				}
				var got bytes.Buffer
				if n, err := c.Get(name, &got); err != nil || n != int64(size) || !bytes.Equal(got.Bytes(), want) {
					t.Errorf("GET %s: n=%d err=%v equal=%v", name, n, err, bytes.Equal(got.Bytes(), want))
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestOwnedBuffersAbortedPuts: PUTs that die on the server with body
// frames in every stage of the hand-off — queued, in the handler's hand,
// still arriving — fail with the same errors as ever, leave the previous
// version intact and the connection usable.
func TestOwnedBuffersAbortedPuts(t *testing.T) {
	noLeaks(t)
	const frames = 6
	v1 := namedPattern("v1", 3*server.DataChunk+5)
	junk := bytes.Repeat([]byte{0xEE}, server.DataChunk)

	// blast sends a PUT of the declared size followed by `frames` full data
	// frames, whatever the server thinks of it, and returns its answer.
	blast := func(t *testing.T, r *rawConn, id uint32, declared int) (server.Header, string) {
		r.send(server.FrameReq, id, []byte(fmt.Sprintf("PUT ckpt %d", declared)))
		for i := 0; i < frames; i++ {
			r.send(server.FrameData, id, junk)
		}
		hdr, payload := r.recv()
		r.send(server.FrameEnd, id, nil)
		return hdr, string(payload)
	}
	ping := func(t *testing.T, r *rawConn, id uint32) {
		t.Helper()
		r.send(server.FrameReq, id, []byte("PING"))
		if hdr, _ := r.recv(); hdr.Type != server.FrameEnd || hdr.ReqID != id {
			t.Fatalf("ping after aborted PUT: type %#x id %d", hdr.Type, hdr.ReqID)
		}
	}
	check := func(t *testing.T, e *env) {
		t.Helper()
		if !bytes.Equal(readThrough(t, e.fs, "ckpt"), v1) {
			t.Fatal("previous version damaged by the failed PUT")
		}
		if s := findStaging(t, e.fs, "."); s != "" {
			t.Fatalf("staging temp %q left behind", s)
		}
	}

	t.Run("declared size exceeded", func(t *testing.T) {
		e := newEnv(t, nil, server.Config{})
		writeThrough(t, e.fs, "ckpt", v1)
		r := dialRaw(t, e.addr)
		hdr, msg := blast(t, r, 1, 2*server.DataChunk+1000) // dies on the third frame
		if hdr.Type != server.FrameErr || hdr.ReqID != 1 || !strings.Contains(msg, "exceeds declared size") ||
			!strings.Contains(msg, "protocol error") {
			t.Fatalf("oversized body: type %#x id %d %q", hdr.Type, hdr.ReqID, msg)
		}
		ping(t, r, 2)
		waitForCleanStore(t, e, "none")
		check(t, e)
		if got := e.srv.Stats().PutsAborted; got != 1 {
			t.Errorf("PutsAborted = %d, want 1", got)
		}
	})

	t.Run("refused up front", func(t *testing.T) {
		e := newEnv(t, nil, server.Config{MaxPutBytes: server.DataChunk})
		writeThrough(t, e.fs, "ckpt", v1)
		r := dialRaw(t, e.addr)
		hdr, msg := blast(t, r, 1, frames*server.DataChunk)
		if hdr.Type != server.FrameErr || hdr.ReqID != 1 || !strings.Contains(msg, "exceeds cap") {
			t.Fatalf("refused PUT: type %#x id %d %q", hdr.Type, hdr.ReqID, msg)
		}
		ping(t, r, 2)
		check(t, e)
	})

	t.Run("backend write error", func(t *testing.T) {
		v2 := namedPattern("v2", len(v1))
		exercised := false
		// One backend write per 64 KiB mount chunk: the sweep walks the
		// fault through the first PUT and across the second.
		for failAfter := 1; failAfter <= 2*len(v1)/(64<<10)+2; failAfter++ {
			backend := memfs.New(memfs.WithWriteError(failAfter, errors.New("disk full")))
			e := newEnv(t, backend, server.Config{})
			c := e.client(t)
			if err := c.Put("ckpt", bytes.NewReader(v1), int64(len(v1))); err != nil {
				continue // fault fired before the first version committed
			}
			err := c.Put("ckpt", bytes.NewReader(v2), int64(len(v2)))
			if err == nil {
				continue // fault did not fire inside the second PUT
			}
			exercised = true
			var re *client.RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "disk full") {
				t.Fatalf("failAfter=%d: failed PUT reported %v", failAfter, err)
			}
			var got bytes.Buffer
			if _, gerr := c.Get("ckpt", &got); gerr != nil || !bytes.Equal(got.Bytes(), v1) {
				t.Fatalf("failAfter=%d: previous version after failed PUT: err=%v intact=%v",
					failAfter, gerr, bytes.Equal(got.Bytes(), v1))
			}
			check(t, e)
		}
		if !exercised {
			t.Fatal("no iteration made the second PUT fail; injection range too narrow")
		}
	})
}

// failingSink accepts one Write and fails the next.
type failingSink struct {
	got bytes.Buffer
}

var errSinkFull = errors.New("sink full")

func (w *failingSink) Write(p []byte) (int, error) {
	if w.got.Len() > 0 {
		return 0, errSinkFull
	}
	return w.got.Write(p)
}

// TestOwnedBuffersGetSinkFails: the client's sink fails after the first
// frame while the server keeps streaming. The caller gets the sink's
// error and exactly the first frame's bytes; the frames still in flight
// are dropped with the session, and the server serves the next client.
func TestOwnedBuffersGetSinkFails(t *testing.T) {
	noLeaks(t)
	e := newEnv(t, nil, server.Config{})
	want := testPattern(8 * server.DataChunk)
	writeThrough(t, e.fs, "img", want)
	c := e.client(t)
	var sink failingSink
	n, err := c.Get("img", &sink)
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("GET into a failing sink: n=%d err=%v", n, err)
	}
	if n != int64(sink.got.Len()) || n == 0 || !bytes.HasPrefix(want, sink.got.Bytes()) {
		t.Fatalf("sink holds %d bytes (n=%d), not a prefix of the content", sink.got.Len(), n)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("session still usable after the sink failed mid-GET")
	}
	var got bytes.Buffer
	if _, err := e.client(t).Get("img", &got); err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("GET on a fresh session: err=%v equal=%v", err, bytes.Equal(got.Bytes(), want))
	}
}

// TestOwnedBuffersConnKilled: a connection dropped mid-PUT and one
// dropped mid-GET strand buffers in every queue of the connection. The
// server must shed them without a leak, commit nothing, and keep serving.
func TestOwnedBuffersConnKilled(t *testing.T) {
	noLeaks(t)
	e := newEnv(t, nil, server.Config{ReadTimeout: 200 * time.Millisecond})
	want := testPattern(16 * server.DataChunk)
	writeThrough(t, e.fs, "img", want)

	put := dialRaw(t, e.addr)
	put.send(server.FrameReq, 1, []byte(fmt.Sprintf("PUT half %d", len(want))))
	for i := 0; i < 5; i++ {
		put.send(server.FrameData, 1, want[i*server.DataChunk:(i+1)*server.DataChunk])
	}
	put.nc.Close()

	get := dialRaw(t, e.addr)
	get.send(server.FrameReq, 1, []byte("GET img"))
	if hdr, payload := get.recv(); hdr.Type != server.FrameData || !bytes.HasPrefix(want, payload) {
		t.Fatalf("first GET frame: type %#x, %d bytes", hdr.Type, len(payload))
	}
	get.nc.Close()

	waitForCleanStore(t, e, "half")
	var got bytes.Buffer
	if _, err := e.client(t).Get("img", &got); err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("GET after the kills: err=%v equal=%v", err, bytes.Equal(got.Bytes(), want))
	}
}

// TestWireCompatFrameSizes: DataChunk is a sender's choice, not protocol.
// A peer sending 64 KiB frames (the size before it grew) and one sending
// a single frame of the protocol maximum commit byte-identical objects;
// one byte more than the maximum is still a fatal protocol error, and so
// is an empty data frame.
func TestWireCompatFrameSizes(t *testing.T) {
	noLeaks(t)
	e := newEnv(t, nil, server.Config{})
	want := testPattern(server.MaxFramePayload)

	putInFrames := func(t *testing.T, name string, frame int) {
		t.Helper()
		r := dialRaw(t, e.addr)
		r.send(server.FrameReq, 1, []byte(fmt.Sprintf("PUT %s %d", name, len(want))))
		for off := 0; off < len(want); off += frame {
			r.send(server.FrameData, 1, want[off:min(off+frame, len(want))])
		}
		r.send(server.FrameEnd, 1, nil)
		hdr, payload := r.recv()
		if hdr.Type != server.FrameEnd || hdr.ReqID != 1 || string(payload) != fmt.Sprintf("OK %d", len(want)) {
			t.Fatalf("PUT in %d-byte frames: type %#x id %d %q", frame, hdr.Type, hdr.ReqID, payload)
		}
		if !bytes.Equal(readThrough(t, e.fs, name), want) {
			t.Fatalf("PUT in %d-byte frames committed wrong bytes", frame)
		}
	}
	t.Run("64 KiB frames", func(t *testing.T) { putInFrames(t, "old-sender", 64<<10) })
	t.Run("one maximal frame", func(t *testing.T) { putInFrames(t, "max-frame", server.MaxFramePayload) })

	// fatal sends raw bytes inside an admitted PUT and expects the
	// connection to be torn down as a protocol violation. The report frame
	// races the teardown, so it may not arrive; if it does, it is the
	// connection-level error.
	fatal := func(t *testing.T, raw []byte, wantMsg string) {
		t.Helper()
		before := e.srv.Stats().ProtocolErrors
		r := dialRaw(t, e.addr)
		r.send(server.FrameReq, 1, []byte(fmt.Sprintf("PUT refused %d", 2*server.MaxFramePayload)))
		r.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := r.nc.Write(raw); err != nil {
			t.Fatal(err)
		}
		r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			hdr, payload, err := server.ReadFrame(r.nc, nil)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatal("connection still open, want close")
				}
				break
			}
			if hdr.Type != server.FrameErr || hdr.ReqID != 0 || !strings.Contains(string(payload), wantMsg) {
				t.Fatalf("type %#x id %d %q, want a connection-level error naming %q", hdr.Type, hdr.ReqID, payload, wantMsg)
			}
		}
		if got := e.srv.Stats().ProtocolErrors - before; got != 1 {
			t.Errorf("ProtocolErrors rose by %d, want 1", got)
		}
		waitForCleanStore(t, e, "refused")
	}
	dataHeader := func(length uint32) []byte {
		b := make([]byte, server.HeaderLen)
		b[0] = server.FrameData
		binary.BigEndian.PutUint32(b[4:], 1)
		binary.BigEndian.PutUint32(b[8:], length)
		return b
	}
	t.Run("one byte past the maximum", func(t *testing.T) {
		if _, err := server.ParseFrameHeader(dataHeader(server.MaxFramePayload)); err != nil {
			t.Fatalf("maximal frame header refused: %v", err)
		}
		if _, err := server.ParseFrameHeader(dataHeader(server.MaxFramePayload + 1)); !errors.Is(err, server.ErrProtocol) {
			t.Fatalf("oversized frame header: %v, want ErrProtocol", err)
		}
		fatal(t, dataHeader(server.MaxFramePayload+1), "protocol error")
	})
	t.Run("empty data frame", func(t *testing.T) {
		fatal(t, dataHeader(0), "empty data frame")
	})
}
