package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/obs"
	"crfs/internal/osfs"
	"crfs/internal/server"
	"crfs/internal/vfs"
)

// fdTrackFS is an osfs backend whose files forward vfs.FDReader and
// record how the daemon uses them: how many ranges went by descriptor,
// how many handles are open, and every misuse — a handle closed while a
// send through it was under way, or a send through a closed handle.
// afterFirst, when set, runs once inside the first send, after its bytes
// went out.
type fdTrackFS struct {
	*osfs.FS
	sends, open, misuse atomic.Int64
	sending             atomic.Int32
	afterFirst          atomic.Pointer[func()]
	once                sync.Once
}

func (b *fdTrackFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	f, err := b.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	b.open.Add(1)
	return &fdTrackFile{File: f, b: b}, nil
}

type fdTrackFile struct {
	vfs.File
	b      *fdTrackFS
	inUse  atomic.Int32
	closed atomic.Bool
}

func (f *fdTrackFile) ReadFD(off, n int64, send func(fd uintptr) error) (bool, error) {
	if f.closed.Load() {
		f.b.misuse.Add(1)
	}
	f.inUse.Add(1)
	f.b.sending.Add(1)
	defer f.b.sending.Add(-1)
	defer f.inUse.Add(-1)
	ok, err := f.File.(vfs.FDReader).ReadFD(off, n, send)
	if ok && send != nil {
		f.b.sends.Add(1)
		if hook := f.b.afterFirst.Load(); hook != nil {
			f.b.once.Do(*hook)
		}
	}
	return ok, err
}

func (f *fdTrackFile) Close() error {
	if f.inUse.Load() != 0 {
		f.b.misuse.Add(1)
	}
	f.closed.Store(true)
	f.b.open.Add(-1)
	return f.File.Close()
}

// newFDEnv is a daemon over an fdTrackFS mount writing with cdc (nil:
// raw), tracing into tr when tr is not nil.
func newFDEnv(t *testing.T, cdc codec.Codec, tr *obs.Tracer) (*env, *fdTrackFS) {
	t.Helper()
	dir := t.TempDir()
	o, err := osfs.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	back := &fdTrackFS{FS: o}
	return newCodecEnv(t, back, cdc, server.Config{Tracer: tr}), back
}

// waitUntil polls cond for up to 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("wedged: %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// mustReleaseEverything demands that the daemon closed every backend
// handle, never while a send through it was under way, and gave back
// every frame buffer.
func mustReleaseEverything(t *testing.T, back *fdTrackFS) {
	t.Helper()
	waitUntil(t, "backend handles still open", func() bool { return back.open.Load() == 0 })
	waitUntil(t, "frame buffers still out", func() bool { return server.FrameBufs.Held() == 0 })
	if n := back.misuse.Load(); n != 0 {
		t.Fatalf("%d backend handles closed under a send or used after their close", n)
	}
}

// fdFramesOf returns the fd_frames attribute of the crfsd.GET span of
// object, waiting for it: a handler ends its span after the client has
// its answer.
func fdFramesOf(t *testing.T, tr *obs.Tracer, object string) string {
	t.Helper()
	got := ""
	waitUntil(t, "no crfsd.GET span of "+object, func() bool {
		for _, r := range tr.Snapshot() {
			attrs := map[string]string{}
			for _, a := range r.Attrs {
				attrs[a.Key] = a.Val
			}
			if r.Name == "crfsd.GET" && attrs["name"] == object {
				got = attrs["fd_frames"]
				return true
			}
		}
		return false
	})
	return got
}

func framesOf(size int) int { return (size + server.DataChunk - 1) / server.DataChunk }

// TestDescriptorGetBytes: a GET over TCP from an osfs mount goes out in
// descriptor frames, one per data frame, and returns the bytes a GET
// from a memfs mount (the buffered path) returns, at every frame-size
// boundary and across a hole. The crfsd.GET span says how many frames
// went by descriptor.
func TestDescriptorGetBytes(t *testing.T) {
	noLeaks(t)
	tr := obs.New(1 << 12)
	tr.SetEnabled(true)
	fe, back := newFDEnv(t, nil, tr)
	be := newEnv(t, memfs.New(), server.Config{})
	fc, bc := fe.client(t), be.client(t)

	check := func(t *testing.T, name string, want []byte) {
		t.Helper()
		sends := back.sends.Load()
		var fget, bget bytes.Buffer
		if n, err := fc.Get(name, &fget); err != nil || n != int64(len(want)) {
			t.Fatalf("descriptor GET %s: n=%d err=%v", name, n, err)
		}
		if n, err := bc.Get(name, &bget); err != nil || n != int64(len(want)) {
			t.Fatalf("buffered GET %s: n=%d err=%v", name, n, err)
		}
		if !bytes.Equal(fget.Bytes(), want) || !bytes.Equal(bget.Bytes(), want) {
			t.Fatalf("GET %s: descriptor path equal=%v, buffered path equal=%v",
				name, bytes.Equal(fget.Bytes(), want), bytes.Equal(bget.Bytes(), want))
		}
		frames := framesOf(len(want))
		if got := back.sends.Load() - sends; got != int64(frames) {
			t.Errorf("GET %s of %d bytes: %d frames by descriptor, want %d", name, len(want), got, frames)
		}
		if got := fdFramesOf(t, tr, name); got != fmt.Sprint(frames) {
			t.Errorf("GET %s: span fd_frames=%s, want %d", name, got, frames)
		}
	}
	for _, size := range []int{0, 1, server.DataChunk - 1, server.DataChunk, server.DataChunk + 1, 4<<20 + 3} {
		name := fmt.Sprintf("img-%d", size)
		want := namedPattern(name, size)
		writeThrough(t, fe.fs, name, want)
		writeThrough(t, be.fs, name, want)
		check(t, name, want)
	}

	// A hole between two written ranges reads as zeros on both paths.
	want := make([]byte, 3<<20+1000)
	copy(want, namedPattern("head", 1000))
	copy(want[3<<20:], namedPattern("tail", 1000))
	for _, fs := range []vfs.FS{fe.fs, be.fs} {
		f, err := fs.Open("holey", vfs.WriteOnly|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(want[:1000], 0)
		f.WriteAt(want[3<<20:], 3<<20)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check(t, "holey", want)
	mustReleaseEverything(t, back)
}

// TestDescriptorGetFallsBack: a GET goes by descriptor only while the
// file can be read so. A deflate mount's containers go out buffered from
// the start. A file another handle dirties after the GET began cannot
// send its next frame so: the daemon closes the connection after the
// frames it did send, and the client gets a session-lost error and a
// prefix of the file, never bytes ReadAt would not return.
func TestDescriptorGetFallsBack(t *testing.T) {
	noLeaks(t)
	const size = 4 * server.DataChunk
	t.Run("deflate mount", func(t *testing.T) {
		e, back := newFDEnv(t, codec.Deflate(), nil)
		want := namedPattern("img", size)
		writeThrough(t, e.fs, "img", want)
		var got bytes.Buffer
		if n, err := e.client(t).Get("img", &got); err != nil || n != size || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("GET from a deflate mount: n=%d err=%v", n, err)
		}
		if n := back.sends.Load(); n != 0 {
			t.Errorf("%d frames of a container went by descriptor", n)
		}
		mustReleaseEverything(t, back)
	})
	t.Run("dirtied between frames", func(t *testing.T) {
		tr := obs.New(1 << 12)
		tr.SetEnabled(true)
		e, back := newFDEnv(t, nil, tr)
		want := namedPattern("img", size)
		writeThrough(t, e.fs, "img", want)
		// The second handle is opened before the GET: a writable open of
		// a path open only for reading is refused.
		w, err := e.fs.Open("img", vfs.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		dirty := func() {
			if _, err := w.WriteAt([]byte("written by a second handle"), 2*server.DataChunk+10); err != nil {
				t.Error(err)
			}
		}
		back.afterFirst.Store(&dirty)
		var got bytes.Buffer
		n, err := e.client(t).Get("img", &got)
		if err := w.Close(); err != nil {
			t.Error(err)
		}
		if err == nil || !strings.Contains(err.Error(), "session lost") {
			t.Fatalf("GET of a file dirtied mid-GET: n=%d err=%v, want the session lost", n, err)
		}
		if n != server.DataChunk || !bytes.Equal(got.Bytes(), want[:n]) {
			t.Fatalf("GET of a file dirtied mid-GET delivered %d bytes, want the first frame's", n)
		}
		if n := back.sends.Load(); n != 1 {
			t.Errorf("%d frames by descriptor, want only the one before the write", n)
		}
		if got := fdFramesOf(t, tr, "img"); got != "1" {
			t.Errorf("span fd_frames=%s, want 1", got)
		}
		mustReleaseEverything(t, back)
	})
}

// TestDescriptorGetShortSendClosesConnection: a backing file cut short
// behind the mount's back makes a descriptor frame come up short after
// its header went out. The daemon closes the connection: the client
// gets a session-lost error and a prefix of the file, never wrong
// bytes or a clean end.
func TestDescriptorGetShortSendClosesConnection(t *testing.T) {
	noLeaks(t)
	const size = 4 * server.DataChunk
	e, back := newFDEnv(t, nil, nil)
	want := namedPattern("img", size)
	writeThrough(t, e.fs, "img", want)
	cut := func() {
		if err := os.Truncate(filepath.Join(back.Root(), "img"), server.DataChunk+100); err != nil {
			t.Error(err)
		}
	}
	back.afterFirst.Store(&cut)
	var got bytes.Buffer
	n, err := e.client(t).Get("img", &got)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "session lost") {
		t.Fatalf("GET of a file cut short: n=%d err=%v, want the session lost mid-frame", n, err)
	}
	if n >= size || !bytes.HasPrefix(want, got.Bytes()) {
		t.Fatalf("GET of a file cut short delivered %d bytes, prefix=%v", n, bytes.HasPrefix(want, got.Bytes()))
	}
	mustReleaseEverything(t, back)
}

// stallGet starts a GET of name on a raw connection, takes its first
// frame, then stops reading until a descriptor send is under way, which
// the full socket then holds up. It returns the connection and the bytes
// taken.
func stallGet(t *testing.T, e *env, back *fdTrackFS, name string) (*rawConn, []byte) {
	t.Helper()
	r := dialRaw(t, e.addr)
	r.send(server.FrameReq, 1, []byte("GET "+name))
	hdr, first := r.recv()
	if hdr.Type != server.FrameData {
		t.Fatalf("first GET frame: type %#x", hdr.Type)
	}
	waitUntil(t, "no descriptor send under way", func() bool { return back.sending.Load() > 0 })
	return r, first
}

// readRest reads the stalled GET to its end frame and returns the body.
func readRest(t *testing.T, r *rawConn, got []byte) []byte {
	t.Helper()
	for {
		hdr, payload := r.recv()
		switch hdr.Type {
		case server.FrameData:
			got = append(got, payload...)
		case server.FrameEnd:
			if want := fmt.Sprintf("OK %d", len(got)); string(payload) != want {
				t.Fatalf("end frame %q after %d bytes", payload, len(got))
			}
			return got
		default:
			t.Fatalf("frame type %#x mid-GET: %s", hdr.Type, payload)
		}
	}
}

// TestDescriptorGetTeardown: a GET whose frames go by descriptor is torn
// down mid-body three ways — its connection is killed, the daemon shuts
// down, the object is deleted. None wedges; every goroutine ends and
// every frame buffer is back; the backend handle is closed only after the
// writer stopped using it. A drain lets the GET finish, and a deleted
// object still reads whole, since the open descriptor outlives the
// unlink.
func TestDescriptorGetTeardown(t *testing.T) {
	const size = 16 << 20 // more than loopback's socket buffers hold
	want := namedPattern("img", size)
	setup := func(t *testing.T) (*env, *fdTrackFS) {
		noLeaks(t)
		e, back := newFDEnv(t, nil, nil)
		writeThrough(t, e.fs, "img", want)
		return e, back
	}
	t.Run("connection killed", func(t *testing.T) {
		e, back := setup(t)
		r, _ := stallGet(t, e, back, "img")
		r.nc.Close()
		mustReleaseEverything(t, back)
		var got bytes.Buffer
		if _, err := e.client(t).Get("img", &got); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("GET after the kill: err=%v equal=%v", err, bytes.Equal(got.Bytes(), want))
		}
		mustReleaseEverything(t, back)
	})
	t.Run("shutdown", func(t *testing.T) {
		e, back := setup(t)
		r, got := stallGet(t, e, back, "img")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained := make(chan error, 1)
		go func() { drained <- e.srv.Shutdown(ctx) }()
		if got = readRest(t, r, got); !bytes.Equal(got, want) {
			t.Fatalf("GET under a drain: %d bytes, equal=%v", len(got), bytes.Equal(got, want))
		}
		r.expectClosed()
		if err := <-drained; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		mustReleaseEverything(t, back)
	})
	t.Run("object deleted", func(t *testing.T) {
		e, back := setup(t)
		r, got := stallGet(t, e, back, "img")
		if err := e.client(t).Delete("img"); err != nil {
			t.Fatal(err)
		}
		if got = readRest(t, r, got); !bytes.Equal(got, want) {
			t.Fatalf("GET of a deleted object: %d bytes, equal=%v", len(got), bytes.Equal(got, want))
		}
		if _, err := e.client(t).Get("img", &bytes.Buffer{}); !errors.Is(err, vfs.ErrNotExist) && (err == nil || !strings.Contains(err.Error(), "no such file")) {
			t.Fatalf("GET after DEL: %v", err)
		}
		mustReleaseEverything(t, back)
	})
}
