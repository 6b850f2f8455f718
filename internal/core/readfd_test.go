package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// fdBackend gives a backend's files a fake descriptor, so a mount's
// ReadFD can be driven without an operating-system file. Its WriteAt
// waits on gate, when there is one.
type fdBackend struct {
	vfs.FS
	gate chan struct{}
}

func (b *fdBackend) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	f, err := b.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &fdBackendFile{File: f, b: b}, nil
}

type fdBackendFile struct {
	vfs.File
	b *fdBackend
}

const fakeFD = 7

func (f *fdBackendFile) ReadFD(off, n int64, send func(fd uintptr) error) (bool, error) {
	if send == nil {
		return true, nil
	}
	return true, send(fakeFD)
}

func (f *fdBackendFile) WriteAt(p []byte, off int64) (int, error) {
	if f.b.gate != nil {
		<-f.b.gate
	}
	return f.File.WriteAt(p, off)
}

// sendLog records the sends a ReadFD made.
type sendLog struct{ fds []uintptr }

func (l *sendLog) send(fd uintptr) error {
	l.fds = append(l.fds, fd)
	return nil
}

// TestReadFDOnlyWhenClean: a handle sends by descriptor only while every
// byte of the range is on the backend as ReadAt would return it: a clean
// plain file, the range inside it. A frame container, a chunk active or
// in flight, a failed backend, a range past the end, a backend that
// cannot send each answer false; a closed or write-only handle fails.
// None of them sends anything.
func TestReadFDOnlyWhenClean(t *testing.T) {
	opts := Options{ChunkSize: 64, BufferPoolSize: 1024, IOThreads: 2}
	body := bytes.Repeat([]byte("0123456789"), 100)
	// written is a mount holding body as "f", closed.
	written := func(t *testing.T, back vfs.FS, opts Options) *FS {
		fs := mount(t, back, opts)
		if err := vfs.WriteFile(fs, "f", body); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	open := func(t *testing.T, fs *FS, flag vfs.OpenFlag) vfs.File {
		t.Helper()
		f, err := fs.Open("f", flag)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	// refuse demands that ReadFD of [off, off+n) answers false or wantErr,
	// and sends nothing.
	refuse := func(t *testing.T, f vfs.File, off, n int64, wantErr error) {
		t.Helper()
		var log sendLog
		ok, err := f.(vfs.FDReader).ReadFD(off, n, log.send)
		if ok || len(log.fds) != 0 || (wantErr == nil) != (err == nil) || (wantErr != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("ReadFD(%d, %d) = %v, %v after %d sends; want false, %v, no send", off, n, ok, err, len(log.fds), wantErr)
		}
	}

	t.Run("clean plain file sends", func(t *testing.T) {
		fs := written(t, &fdBackend{FS: memfs.New()}, opts)
		f := open(t, fs, vfs.ReadOnly)
		before := fs.Stats()
		var log sendLog
		if ok, err := f.(vfs.FDReader).ReadFD(10, int64(len(body))-10, log.send); !ok || err != nil || len(log.fds) != 1 || log.fds[0] != fakeFD {
			t.Fatalf("ReadFD of a clean file = %v, %v, sends %v", ok, err, log.fds)
		}
		if st := fs.Stats(); st.Reads != before.Reads+1 || st.BytesRead != before.BytesRead+int64(len(body))-10 {
			t.Errorf("read counters moved by %d calls, %d bytes; want 1, %d", st.Reads-before.Reads, st.BytesRead-before.BytesRead, len(body)-10)
		}
	})
	t.Run("range past the end", func(t *testing.T) {
		f := open(t, written(t, &fdBackend{FS: memfs.New()}, opts), vfs.ReadOnly)
		refuse(t, f, int64(len(body))-10, 11, nil)
		refuse(t, f, -1, 10, nil)
	})
	t.Run("frame container", func(t *testing.T) {
		deflate := opts
		deflate.Codec = codec.Deflate()
		refuse(t, open(t, written(t, &fdBackend{FS: memfs.New()}, deflate), vfs.ReadOnly), 0, 10, nil)
	})
	t.Run("backend without descriptors", func(t *testing.T) {
		refuse(t, open(t, written(t, memfs.New(), opts), vfs.ReadOnly), 0, 10, nil)
	})
	t.Run("active chunk", func(t *testing.T) {
		f := open(t, written(t, &fdBackend{FS: memfs.New()}, opts), vfs.ReadWrite)
		if _, err := f.WriteAt([]byte("x"), 20); err != nil {
			t.Fatal(err)
		}
		refuse(t, f, 0, 64, nil)
	})
	t.Run("chunk in flight", func(t *testing.T) {
		back := &fdBackend{FS: memfs.New()}
		fs := written(t, back, opts)
		back.gate = make(chan struct{})
		f := open(t, fs, vfs.ReadWrite)
		// Registered after open's cleanup, so it runs first: a Close
		// waits for the stalled chunk.
		var once sync.Once
		release := func() { once.Do(func() { close(back.gate) }) }
		t.Cleanup(release)
		if _, err := f.WriteAt(bytes.Repeat([]byte("y"), 64), 64); err != nil { // a whole chunk: enqueued, stalls
			t.Fatal(err)
		}
		refuse(t, f, 64, 64, nil)
		release()
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		var log sendLog
		if ok, err := f.(vfs.FDReader).ReadFD(64, 64, log.send); !ok || err != nil || len(log.fds) != 1 {
			t.Fatalf("ReadFD once the chunk landed = %v, %v, %d sends", ok, err, len(log.fds))
		}
	})
	t.Run("failed backend", func(t *testing.T) {
		errDisk := errors.New("disk full")
		fs := mount(t, &fdBackend{FS: memfs.New(memfs.WithWriteError(0, errDisk))}, opts)
		f, err := fs.Open("f", vfs.ReadWrite|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.WriteAt(body, 0)
		if err := f.Sync(); !errors.Is(err, errDisk) {
			t.Fatalf("Sync over a failing backend: %v", err)
		}
		refuse(t, f, 0, 10, nil)
	})
	t.Run("closed handle", func(t *testing.T) {
		f, err := written(t, &fdBackend{FS: memfs.New()}, opts).Open("f", vfs.ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		refuse(t, f, 0, 10, vfs.ErrClosed)
	})
	t.Run("write-only handle", func(t *testing.T) {
		refuse(t, open(t, written(t, &fdBackend{FS: memfs.New()}, opts), vfs.WriteOnly), 0, 10, vfs.ErrReadOnly)
	})
}
