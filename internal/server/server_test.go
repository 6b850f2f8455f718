package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"crfs/internal/client"
	"crfs/internal/codec"
	"crfs/internal/core"
	"crfs/internal/memfs"
	"crfs/internal/server"
	"crfs/internal/vfs"
)

// env is one running server over a fresh in-memory mount.
type env struct {
	fs   *core.FS
	srv  *server.Server
	addr string
	done chan error
}

func newEnv(t *testing.T, backend vfs.FS, cfg server.Config) *env {
	t.Helper()
	return newCodecEnv(t, backend, nil, cfg)
}

// newCodecEnv is newEnv over a mount writing with cdc (nil: raw).
func newCodecEnv(t *testing.T, backend vfs.FS, cdc codec.Codec, cfg server.Config) *env {
	t.Helper()
	if backend == nil {
		backend = memfs.New()
	}
	fs, err := core.Mount(backend, core.Options{ChunkSize: 64 << 10, BufferPoolSize: 8 << 20, Codec: cdc})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(fs, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{fs: fs, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- srv.Serve(ln) }()
	// Wait until Serve is actually running: a hello round-trip proves a
	// connection was served. Without this, a test body that finishes
	// immediately can begin the drain before the Serve goroutine was ever
	// scheduled, and Serve then reports "serve after shutdown".
	nc, err := net.DialTimeout("tcp", e.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(nc, server.HelloLine); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := server.ReadFrame(bufio.NewReader(nc), nil); err != nil {
		t.Fatalf("readiness hello: %v", err)
	}
	nc.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		select {
		case err := <-e.done:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
		fs.Unmount()
	})
	return e
}

func (e *env) client(t *testing.T) *client.Client {
	t.Helper()
	c, err := client.Dial(e.addr, client.Config{IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// rawConn speaks raw protocol v2 frames, for malformed-input tests.
type rawConn struct {
	t  *testing.T
	nc net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	r := &rawConn{t: t, nc: nc}
	if _, err := io.WriteString(nc, server.HelloLine); err != nil {
		t.Fatal(err)
	}
	hdr, _ := r.recv()
	if hdr.Type != server.FrameHello {
		t.Fatalf("first frame type %#x, want hello", hdr.Type)
	}
	return r
}

func (r *rawConn) send(typ uint8, id uint32, payload []byte) {
	r.t.Helper()
	r.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := server.WriteFrame(r.nc, typ, id, payload); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawConn) recv() (server.Header, []byte) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	hdr, payload, err := server.ReadFrame(r.nc, nil)
	if err != nil {
		r.t.Fatalf("reading frame: %v", err)
	}
	return hdr, payload
}

// expectClosed asserts the server hangs up (optionally after a
// connection-level error frame).
func (r *rawConn) expectClosed() {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		_, _, err := server.ReadFrame(r.nc, nil)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				r.t.Fatal("connection still open, want close")
			}
			return
		}
	}
}

func TestPingStatScrubRoundtrip(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	c := e.client(t)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	st, err := c.Stat()
	if err != nil || !strings.Contains(st, "writes=") {
		t.Fatalf("stat: %q, %v", st, err)
	}
	sc, err := c.Scrub()
	if err != nil || !strings.HasPrefix(sc, "OK containers=") {
		t.Fatalf("scrub: %q, %v", sc, err)
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	c := e.client(t)
	body := bytes.Repeat([]byte("checkpoint"), 40000) // ~400 KB, several chunks
	if err := c.Put("ckpt/rank0", bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatalf("put: %v", err)
	}
	var got bytes.Buffer
	n, err := c.Get("ckpt/rank0", &got)
	if err != nil || n != int64(len(body)) || !bytes.Equal(got.Bytes(), body) {
		t.Fatalf("get: n=%d err=%v equal=%v", n, err, bytes.Equal(got.Bytes(), body))
	}
}

func TestZeroSizePut(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	c := e.client(t)
	if err := c.Put("empty", bytes.NewReader(nil), 0); err != nil {
		t.Fatalf("put: %v", err)
	}
	var got bytes.Buffer
	if n, err := c.Get("empty", &got); err != nil || n != 0 {
		t.Fatalf("get: n=%d err=%v", n, err)
	}
}

func TestGetMissingName(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	c := e.client(t)
	if _, err := c.Get("no/such/file", io.Discard); err == nil {
		t.Fatal("GET of missing name succeeded")
	}
	// The failed request must not poison the connection.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after failed GET: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	r := dialRaw(t, e.addr)
	cases := []string{
		"",
		"FROB x",
		"PUT onlyname",
		"PUT name -5",
		"PUT name notanumber",
		"GET",
		"STAT extra",
		"GET ../escape",
		"GET /abs",
		"PUT sneaky.crfsd-1.put~ 10",
	}
	for i, line := range cases {
		id := uint32(i + 1)
		r.send(server.FrameReq, id, []byte(line))
		hdr, _ := r.recv()
		if hdr.Type != server.FrameErr || hdr.ReqID != id {
			t.Fatalf("case %q: frame type %#x id %d, want err frame for %d", line, hdr.Type, hdr.ReqID, id)
		}
	}
	// After every refusal the connection must still work.
	r.send(server.FrameReq, 100, []byte("PING"))
	if hdr, _ := r.recv(); hdr.Type != server.FrameEnd || hdr.ReqID != 100 {
		t.Fatalf("ping after refusals: type %#x id %d", hdr.Type, hdr.ReqID)
	}
}

func TestMalformedFramesCloseConnection(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	send := func(raw []byte) *rawConn {
		r := dialRaw(t, e.addr)
		r.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := r.nc.Write(raw); err != nil {
			t.Fatal(err)
		}
		return r
	}
	hdr := func(typ uint8, flags uint8, reserved uint16, id, length uint32) []byte {
		b := make([]byte, server.HeaderLen)
		b[0] = typ
		b[1] = flags
		binary.BigEndian.PutUint16(b[2:], reserved)
		binary.BigEndian.PutUint32(b[4:], id)
		binary.BigEndian.PutUint32(b[8:], length)
		return b
	}
	t.Run("unknown type", func(t *testing.T) {
		send(hdr(0x7f, 0, 0, 1, 0)).expectClosed()
	})
	t.Run("nonzero flags", func(t *testing.T) {
		send(hdr(server.FrameReq, 1, 0, 1, 0)).expectClosed()
	})
	t.Run("nonzero reserved", func(t *testing.T) {
		send(hdr(server.FrameReq, 0, 9, 1, 0)).expectClosed()
	})
	t.Run("oversized payload", func(t *testing.T) {
		send(hdr(server.FrameReq, 0, 0, 1, server.MaxFramePayload+1)).expectClosed()
	})
	t.Run("request id zero", func(t *testing.T) {
		r := dialRaw(t, e.addr)
		r.send(server.FrameReq, 0, []byte("PING"))
		r.expectClosed()
	})
	t.Run("body for unknown request", func(t *testing.T) {
		r := dialRaw(t, e.addr)
		r.send(server.FrameData, 42, []byte("junk"))
		r.expectClosed()
	})
	t.Run("end frame with payload", func(t *testing.T) {
		r := dialRaw(t, e.addr)
		r.send(server.FrameReq, 1, []byte("PUT x 4"))
		r.send(server.FrameEnd, 1, []byte("oops"))
		r.expectClosed()
	})
	t.Run("duplicate request id", func(t *testing.T) {
		r := dialRaw(t, e.addr)
		r.send(server.FrameReq, 7, []byte("PUT x 1048576"))
		r.send(server.FrameReq, 7, []byte("PING"))
		r.expectClosed()
	})
}

func TestHugeDeclaredSizeRejected(t *testing.T) {
	e := newEnv(t, nil, server.Config{MaxPutBytes: 1 << 20})
	c := e.client(t)
	err := c.Put("big", bytes.NewReader(make([]byte, 2<<20)), 2<<20)
	var re *client.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "exceeds cap") {
		t.Fatalf("oversized PUT: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after rejected PUT: %v", err)
	}
	if _, err := e.fs.Open("big", vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("rejected PUT left a file: %v", err)
	}
}

func TestPartialPutDisconnectLeavesNothing(t *testing.T) {
	e := newEnv(t, nil, server.Config{ReadTimeout: 200 * time.Millisecond})
	r := dialRaw(t, e.addr)
	r.send(server.FrameReq, 1, []byte("PUT half 1048576"))
	r.send(server.FrameData, 1, make([]byte, 64<<10))
	r.nc.Close()
	waitForCleanStore(t, e, "half")
}

func TestStalledClientReaped(t *testing.T) {
	e := newEnv(t, nil, server.Config{ReadTimeout: 200 * time.Millisecond})
	r := dialRaw(t, e.addr)
	// The client stalls mid-body.
	r.send(server.FrameReq, 1, []byte("PUT stalled 1048576"))
	r.send(server.FrameData, 1, make([]byte, 1000))
	// Reaped at ReadTimeout, not the 5m idle timeout.
	r.expectClosed()
	waitForCleanStore(t, e, "stalled")
}

// TestPutOverwritesLeaveNoDeadBytes is why crfsd mounts without a
// compaction policy: every PUT streams once, front to back, into a fresh
// staging file that replaces the object by rename, so however often a
// name is overwritten — or a PUT dies mid-body — its container holds no
// dead frame and no torn tail. It fails the day stagePut writes into a
// file that already has frames.
func TestPutOverwritesLeaveNoDeadBytes(t *testing.T) {
	back := memfs.New()
	e := newCodecEnv(t, back, codec.Deflate(), server.Config{})
	c := e.client(t)
	var last []byte
	for i := 0; i < 5; i++ {
		// Longer and shorter than the one before, several chunks each.
		last = testPattern((5-i%2*3)*64<<10 + 1000*i)
		for j := range last {
			last[j] ^= byte(i)
		}
		if err := c.Put("ckpt.img", bytes.NewReader(last), int64(len(last))); err != nil {
			t.Fatalf("PUT %d: %v", i, err)
		}
	}
	r := dialRaw(t, e.addr)
	r.send(server.FrameReq, 1, []byte("PUT ckpt.img 1048576"))
	r.send(server.FrameData, 1, make([]byte, 100<<10))
	r.nc.Close()
	// The abort is counted before its staging temp is removed.
	for deadline := time.Now().Add(10 * time.Second); e.srv.Stats().PutsAborted != 1 || findStaging(t, e.fs, ".") != ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the PUT cut mid-body did not abort and remove its staging temp (%q left): %+v",
				findStaging(t, e.fs, "."), e.srv.Stats())
		}
	}
	box, err := vfs.ReadFile(back, "ckpt.img")
	if err != nil {
		t.Fatal(err)
	}
	frames, intact, stopErr := codec.ScanPrefix(bytes.NewReader(box), int64(len(box)))
	if stopErr != nil || intact != int64(len(box)) || len(frames) < 2 {
		t.Fatalf("container scan: %d frames, %d of %d bytes intact, %v", len(frames), intact, len(box), stopErr)
	}
	lv := codec.Analyze(frames)
	if reclaimable := int64(len(box)) - lv.LiveBytes; reclaimable != 0 || len(lv.Dead) != 0 || lv.NeedMarker {
		t.Errorf("container of an overwritten object has %d reclaimable bytes (%d dead frames, need marker %v), want none",
			reclaimable, len(lv.Dead), lv.NeedMarker)
	}
	var got bytes.Buffer
	if _, err := c.Get("ckpt.img", &got); err != nil || !bytes.Equal(got.Bytes(), last) {
		t.Errorf("GET after the overwrites: %d bytes, err %v; want the last body's %d", got.Len(), err, len(last))
	}
}

// waitForCleanStore polls until the target name does not exist and no
// staging temps remain anywhere in the mount.
func waitForCleanStore(t *testing.T, e *env, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		leftover := ""
		if _, err := e.fs.Open(name, vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
			leftover = name
		}
		if leftover == "" {
			leftover = findStaging(t, e.fs, ".")
		}
		if leftover == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store not clean: %q still present", leftover)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func findStaging(t *testing.T, fs *core.FS, dir string) string {
	t.Helper()
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return ""
	}
	for _, ent := range ents {
		path := vfs.Join(dir, ent.Name)
		if ent.IsDir {
			if s := findStaging(t, fs, path); s != "" {
				return s
			}
		} else if server.IsStagingName(path) {
			return path
		}
	}
	return ""
}

// TestV2GetMidStreamFailure sweeps a backend read fault over every read
// of a GET: the client either gets the full content or an error — and
// the sink only ever holds a prefix of the real content. The object spans
// several data frames, so a fault can land after some were delivered.
func TestV2GetMidStreamFailure(t *testing.T) {
	const (
		frames = 4
		size   = frames * server.DataChunk
	)
	want := testPattern(size)
	midStream := false
	// A GET issues one backend read per frame, so the sweep covers a fault
	// before the first byte, after each frame, and runs that succeed.
	for failAfter := 0; failAfter <= 2*frames; failAfter++ {
		backend := memfs.New(memfs.WithReadError(failAfter, errors.New("media gone bad")))
		e := newEnv(t, backend, server.Config{})
		writeThrough(t, e.fs, "img", want)
		c := e.client(t)
		var got bytes.Buffer
		_, err := c.Get("img", &got)
		if !bytes.HasPrefix(want, got.Bytes()) {
			t.Fatalf("failAfter=%d: sink is not a content prefix (%d bytes)", failAfter, got.Len())
		}
		if err == nil && got.Len() != size {
			t.Fatalf("failAfter=%d: success with %d of %d bytes", failAfter, got.Len(), size)
		}
		if err != nil && got.Len() > 0 {
			midStream = true
		}
	}
	if !midStream {
		t.Fatal("no iteration produced a mid-stream failure; injection range too narrow")
	}
}

// TestFailedPutPreservesPreviousVersion proves the staging bugfix: when
// a PUT's backend writes fail, the previously committed version stays
// visible and intact, and no staging temp is left behind.
func TestFailedPutPreservesPreviousVersion(t *testing.T) {
	first := testPattern(128 << 10)
	second := bytes.Repeat([]byte{0xEE}, 128<<10)
	exercised := false
	for failAfter := 1; failAfter <= 30; failAfter++ {
		backend := memfs.New(memfs.WithWriteError(failAfter, errors.New("disk full")))
		e := newEnv(t, backend, server.Config{})
		c := e.client(t)
		if err := c.Put("ckpt", bytes.NewReader(first), int64(len(first))); err != nil {
			continue // fault fired before the first version committed
		}
		err := c.Put("ckpt", bytes.NewReader(second), int64(len(second)))
		if err == nil {
			continue // fault did not fire inside the second PUT
		}
		exercised = true
		var got bytes.Buffer
		if _, gerr := c.Get("ckpt", &got); gerr != nil {
			t.Fatalf("failAfter=%d: previous version unreadable: %v", failAfter, gerr)
		}
		if !bytes.Equal(got.Bytes(), first) {
			t.Fatalf("failAfter=%d: previous version damaged after failed PUT", failAfter)
		}
		if s := findStaging(t, e.fs, "."); s != "" {
			t.Fatalf("failAfter=%d: staging temp %q left behind", failAfter, s)
		}
	}
	if !exercised {
		t.Fatal("no iteration made the second PUT fail; injection range too narrow")
	}
}

// TestAbortedPutMidBodyDoesNotWedge: the PUT handler aborts mid-body —
// the sixth chunk exceeds the declared size — while the client keeps
// blasting the rest of the body, so the cap-4 body queue is full when
// the handler dies. The reader used to deadlock delivering to the dead
// handler, wedging the connection and permanently leaking its
// connection slot; now the remaining body is drained and the connection
// stays usable.
func TestAbortedPutMidBodyDoesNotWedge(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	r := dialRaw(t, e.addr)
	const size = 5*(64<<10) + 1000 // aborts on the sixth 64 KiB frame
	r.send(server.FrameReq, 1, []byte(fmt.Sprintf("PUT wedge %d", size)))
	for i := 0; i < 20; i++ {
		r.send(server.FrameData, 1, make([]byte, 64<<10))
	}
	hdr, payload := r.recv()
	if hdr.Type != server.FrameErr || hdr.ReqID != 1 {
		t.Fatalf("aborted PUT: type %#x id %d %q", hdr.Type, hdr.ReqID, payload)
	}
	r.send(server.FrameEnd, 1, nil)
	r.send(server.FrameReq, 2, []byte("PING"))
	if hdr, _ := r.recv(); hdr.Type != server.FrameEnd || hdr.ReqID != 2 {
		t.Fatalf("ping after aborted PUT: type %#x id %d", hdr.Type, hdr.ReqID)
	}
	waitForCleanStore(t, e, "wedge")
}

// TestUnparseablePutLineBodyDrained: a PUT whose verb line fails to
// parse (here: a name with a space) is refused, but the body the client
// streams for it must be drained, not treated as frames for an unknown
// request — that fataled the whole multiplexed session.
func TestUnparseablePutLineBodyDrained(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	r := dialRaw(t, e.addr)
	r.send(server.FrameReq, 1, []byte("PUT bad name 16"))
	hdr, _ := r.recv()
	if hdr.Type != server.FrameErr || hdr.ReqID != 1 {
		t.Fatalf("unparseable PUT: type %#x id %d", hdr.Type, hdr.ReqID)
	}
	r.send(server.FrameData, 1, make([]byte, 16))
	r.send(server.FrameEnd, 1, nil)
	r.send(server.FrameReq, 2, []byte("PING"))
	if hdr, _ := r.recv(); hdr.Type != server.FrameEnd || hdr.ReqID != 2 {
		t.Fatalf("ping after unparseable PUT: type %#x id %d", hdr.Type, hdr.ReqID)
	}
}

func TestInFlightCap(t *testing.T) {
	e := newEnv(t, nil, server.Config{MaxInFlight: 1})
	r := dialRaw(t, e.addr)
	// Request 1 occupies the only slot: a PUT whose body never finishes.
	r.send(server.FrameReq, 1, []byte("PUT slow 1048576"))
	r.send(server.FrameReq, 2, []byte("STAT"))
	hdr, payload := r.recv()
	if hdr.Type != server.FrameErr || hdr.ReqID != 2 || !strings.Contains(string(payload), "in-flight cap") {
		t.Fatalf("over-cap request: type %#x id %d %q", hdr.Type, hdr.ReqID, payload)
	}
	// Finish request 1; the connection must still be healthy.
	r.send(server.FrameData, 1, make([]byte, 64<<10))
	body := make([]byte, 1<<20-64<<10)
	for off := 0; off < len(body); off += 64 << 10 {
		r.send(server.FrameData, 1, body[off:off+64<<10])
	}
	r.send(server.FrameEnd, 1, nil)
	if hdr, _ := r.recv(); hdr.Type != server.FrameEnd || hdr.ReqID != 1 {
		t.Fatalf("PUT completion: type %#x id %d", hdr.Type, hdr.ReqID)
	}
}

// errListener fails a fixed number of Accepts before delegating,
// modelling transient accept errors (fd exhaustion).
type errListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (l *errListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, errors.New("accept: too many open files")
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

func TestAcceptErrorBackoff(t *testing.T) {
	fs, err := core.Mount(memfs.New(), core.Options{ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	srv := server.New(fs, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	el := &errListener{Listener: ln, fails: 3}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(el) }()
	// The loop must survive the transient errors and still serve.
	c, err := client.Dial(ln.Addr().String(), client.Config{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial after accept errors: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	c.Close()
	if got := srv.Stats().AcceptRetries; got != 3 {
		t.Fatalf("AcceptRetries = %d, want 3", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	r := dialRaw(t, e.addr)
	const size = 256 << 10
	r.send(server.FrameReq, 1, []byte(fmt.Sprintf("PUT drained %d", size)))
	r.send(server.FrameData, 1, make([]byte, 64<<10))
	// Frames are processed in order: once the PING answers, the PUT is
	// admitted and the drain must treat this connection as busy.
	r.send(server.FrameReq, 99, []byte("PING"))
	if hdr, _ := r.recv(); hdr.Type != server.FrameEnd || hdr.ReqID != 99 {
		t.Fatalf("sync ping: type %#x id %d", hdr.Type, hdr.ReqID)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- e.srv.Shutdown(ctx)
	}()
	// Give the drain a moment to reach the connection, then finish the
	// body: the in-flight PUT must complete, not be cut off.
	time.Sleep(50 * time.Millisecond)
	for off := 64 << 10; off < size; off += 64 << 10 {
		r.send(server.FrameData, 1, make([]byte, 64<<10))
	}
	r.send(server.FrameEnd, 1, nil)
	hdr, payload := r.recv()
	if hdr.Type != server.FrameEnd || hdr.ReqID != 1 {
		t.Fatalf("drained PUT: type %#x id %d %q", hdr.Type, hdr.ReqID, payload)
	}
	r.expectClosed()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained server refuses new connections.
	if _, err := net.DialTimeout("tcp", e.addr, time.Second); err == nil {
		t.Fatal("dial succeeded after drain")
	}
	f, err := e.fs.Open("drained", vfs.ReadOnly)
	if err != nil {
		t.Fatalf("drained PUT not committed: %v", err)
	}
	f.Close()
}

func TestDrainRefusesNewRequests(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	r := dialRaw(t, e.addr)
	// Keep the connection busy so the drain leaves it open, and confirm
	// the PUT is admitted before shutting down (frames process in order).
	r.send(server.FrameReq, 1, []byte("PUT busy 65536"))
	r.send(server.FrameReq, 99, []byte("PING"))
	if hdr, _ := r.recv(); hdr.Type != server.FrameEnd || hdr.ReqID != 99 {
		t.Fatalf("sync ping: type %#x id %d", hdr.Type, hdr.ReqID)
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		e.srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond)
	r.send(server.FrameReq, 2, []byte("PING"))
	hdr, payload := r.recv()
	if hdr.Type != server.FrameErr || hdr.ReqID != 2 || !strings.Contains(string(payload), "draining") {
		t.Fatalf("request during drain: type %#x id %d %q", hdr.Type, hdr.ReqID, payload)
	}
	r.send(server.FrameData, 1, make([]byte, 64<<10))
	r.send(server.FrameEnd, 1, nil)
	if hdr, _ := r.recv(); hdr.Type != server.FrameEnd || hdr.ReqID != 1 {
		t.Fatalf("in-flight PUT during drain: type %#x id %d", hdr.Type, hdr.ReqID)
	}
	r.expectClosed()
}

func TestSweepStaging(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	writeThrough(t, e.fs, "keep", []byte("data"))
	writeThrough(t, e.fs, server.StagingName("keep", 7), []byte("stale"))
	writeThrough(t, e.fs, "dir/"+server.StagingName("x", 9), []byte("stale"))
	n, err := e.srv.SweepStaging()
	if err != nil || n != 2 {
		t.Fatalf("SweepStaging = %d, %v; want 2", n, err)
	}
	if _, err := e.fs.Open("keep", vfs.ReadOnly); err != nil {
		t.Fatalf("sweep removed a real file: %v", err)
	}
}

// TestConcurrentClientsSharedNames is the heavy -race exercise: 64
// clients over persistent connections hammer a small shared namespace
// with version-stamped PUTs and self-validating GETs. Every GET must
// observe exactly one committed version, never a torn mix, error text,
// or a partial file; PUTs may fail only with the commit-contention
// error.
func TestConcurrentClientsSharedNames(t *testing.T) {
	const (
		nClients = 64
		opsEach  = 8
		objSize  = 96 << 10
		nNames   = 5
	)
	e := newEnv(t, nil, server.Config{MaxConns: 32})
	var wg sync.WaitGroup
	errc := make(chan error, nClients)
	for ci := 0; ci < nClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(e.addr, client.Config{IOTimeout: 30 * time.Second})
			if err != nil {
				errc <- fmt.Errorf("client %d: dial: %w", ci, err)
				return
			}
			defer c.Close()
			for op := 0; op < opsEach; op++ {
				name := fmt.Sprintf("shared/obj%d", (ci+op)%nNames)
				if (ci+op)%2 == 0 {
					version := ci*opsEach + op + 1
					body := versionedBody(name, version, objSize)
					err := c.Put(name, bytes.NewReader(body), objSize)
					var re *client.RemoteError
					if err != nil && !(errors.As(err, &re) && strings.Contains(re.Msg, "commit")) {
						errc <- fmt.Errorf("client %d: PUT %s: %w", ci, name, err)
						return
					}
					continue
				}
				var got bytes.Buffer
				if _, err := c.Get(name, &got); err != nil {
					var re *client.RemoteError
					if errors.As(err, &re) && strings.Contains(re.Msg, "not exist") {
						continue // nothing committed under this name yet
					}
					errc <- fmt.Errorf("client %d: GET %s: %w", ci, name, err)
					return
				}
				if verr := checkVersionedBody(name, got.Bytes(), objSize); verr != nil {
					errc <- fmt.Errorf("client %d: GET %s: %w", ci, name, verr)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := e.srv.Stats()
	if st.ProtocolErrors != 0 {
		t.Errorf("ProtocolErrors = %d, want 0", st.ProtocolErrors)
	}
	if st.PutsCommitted == 0 || st.GetsServed == 0 {
		t.Errorf("no traffic recorded: %+v", st)
	}
}

// versionedBody builds a self-validating payload: an 8-byte version
// header followed by a keyed xorshift stream, so any torn mix of two
// versions fails validation.
func versionedBody(name string, version int, size int64) []byte {
	out := make([]byte, size)
	binary.BigEndian.PutUint64(out, uint64(version))
	fillPattern(out[8:], name, uint64(version))
	return out
}

func checkVersionedBody(name string, got []byte, size int64) error {
	if int64(len(got)) != size {
		return fmt.Errorf("got %d bytes, want %d", len(got), size)
	}
	version := binary.BigEndian.Uint64(got)
	want := make([]byte, size-8)
	fillPattern(want, name, version)
	if !bytes.Equal(got[8:], want) {
		return fmt.Errorf("torn or corrupt content for version %d", version)
	}
	return nil
}

func fillPattern(out []byte, name string, seed uint64) {
	x := seed*1099511628211 + 14695981039346656037
	for _, b := range []byte(name) {
		x = (x ^ uint64(b)) * 1099511628211
	}
	if x == 0 {
		x = 1
	}
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
}

func testPattern(size int) []byte {
	out := make([]byte, size)
	fillPattern(out, "pattern", 42)
	return out
}

// writeThrough writes a file via the mount's own API (not the wire).
func writeThrough(t *testing.T, fs *core.FS, name string, data []byte) {
	t.Helper()
	if dir, _ := vfs.Split(name); dir != "." {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Open(name, vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNonHelloFirstLineRefused: a connection that does not open with the
// protocol hello — here two well-formed requests of the retired line
// protocol — gets exactly one ERR line and a hang-up. Nothing is served,
// counted as a request, or staged.
func TestNonHelloFirstLineRefused(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	for _, send := range []string{"STAT\n", "PUT x 10\n0123456789"} {
		before := e.srv.Stats()
		nc, err := net.DialTimeout("tcp", e.addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(nc, send); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(nc)
		line, err := br.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "ERR ") || !strings.Contains(line, "CRFS/2") {
			t.Fatalf("%q: response %q, %v; want one ERR line naming CRFS/2", send, line, err)
		}
		rest, err := io.ReadAll(br)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%q: connection still open after the ERR line", send)
		}
		if len(rest) != 0 {
			t.Fatalf("%q: %d bytes after the ERR line: %.60q", send, len(rest), rest)
		}
		after := e.srv.Stats()
		if got := after.ProtocolErrors - before.ProtocolErrors; got != 1 {
			t.Errorf("%q: ProtocolErrors rose by %d, want 1", send, got)
		}
		if after.Requests != before.Requests || after.PutsCommitted != before.PutsCommitted {
			t.Errorf("%q: refused connection was served: before %+v after %+v", send, before, after)
		}
	}
	waitForCleanStore(t, e, "x")
}
