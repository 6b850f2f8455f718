package osfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"syscall"
	"testing"

	"crfs/internal/vfs"
)

// sendRange has f send [off, off+n) with sendfile(2) into one end of a
// socket pair and returns what arrives at the other. sendfile stopping
// before n bytes is io.ErrUnexpectedEOF.
func sendRange(t *testing.T, f vfs.File, off, n int64) ([]byte, error) {
	t.Helper()
	sp, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, in := os.NewFile(uintptr(sp[0]), "out"), os.NewFile(uintptr(sp[1]), "in")
	defer in.Close()
	ok, err := f.(vfs.FDReader).ReadFD(off, n, func(fd uintptr) error {
		for left := int(n); left > 0; {
			m, err := syscall.Sendfile(sp[0], int(fd), &off, left)
			if err != nil {
				return err
			}
			if m == 0 {
				return io.ErrUnexpectedEOF
			}
			left -= m
		}
		return nil
	})
	out.Close()
	if !ok && err == nil {
		t.Fatalf("ReadFD(%d, %d) answered not now", off, n)
	}
	got, rerr := io.ReadAll(in)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return got, err
}

// TestReadFDSendsTheFileBytes: an osfs file hands sendfile the exact
// bytes of any range, at any offset; a range running past the end comes
// up short; a write-only handle refuses to send.
func TestReadFDSendsTheFileBytes(t *testing.T) {
	fsys := newFS(t)
	body := make([]byte, 3*4096+5)
	for i := range body {
		body[i] = byte(i*7 + i>>9)
	}
	if err := vfs.WriteFile(fsys, "f", body); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range [][2]int64{{0, 1}, {1, 4097}, {3, int64(len(body)) - 3}, {4095, 2}, {int64(len(body)) - 1, 1}, {0, int64(len(body))}} {
		got, err := sendRange(t, f, r[0], r[1])
		if err != nil || !bytes.Equal(got, body[r[0]:r[0]+r[1]]) {
			t.Errorf("send [%d, +%d): %d bytes, %v; want the file's %d", r[0], r[1], len(got), err, r[1])
		}
	}
	if got, err := sendRange(t, f, int64(len(body))-10, 11); !errors.Is(err, io.ErrUnexpectedEOF) || !bytes.Equal(got, body[len(body)-10:]) {
		t.Errorf("send past the end: %d bytes, %v; want the 10 left and a short send", len(got), err)
	}

	w, err := fsys.Open("f", vfs.WriteOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sent := false
	if ok, err := w.(vfs.FDReader).ReadFD(0, 1, func(uintptr) error { sent = true; return nil }); ok || sent || !errors.Is(err, vfs.ErrReadOnly) {
		t.Errorf("ReadFD of a write-only handle = %v, %v, sent %v; want a refusal", ok, err, sent)
	}
}
