package osfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crfs/internal/vfs"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	fsys, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func TestRoundtrip(t *testing.T) {
	fsys := newFS(t)
	want := []byte("checkpoint bytes")
	if err := vfs.WriteFile(fsys, "dir-missing-ok.img", want); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fsys, "dir-missing-ok.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestTraversalStaysInsideRoot(t *testing.T) {
	fsys := newFS(t)
	// "../evil" is anchored at the vfs root, so it lands inside the host
	// root as "evil" rather than escaping it.
	f, err := fsys.Open("../evil", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := os.Stat(filepath.Join(fsys.Root(), "evil")); err != nil {
		t.Errorf("expected ../evil to resolve inside root: %v", err)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(fsys.Root()), "evil")); err == nil {
		t.Error("../evil escaped the osfs root")
	}
}

func TestNotExist(t *testing.T) {
	fsys := newFS(t)
	if _, err := fsys.Open("nope", vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("open: %v, want ErrNotExist", err)
	}
	if _, err := fsys.Stat("nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("stat: %v, want ErrNotExist", err)
	}
}

func TestDirAndRename(t *testing.T) {
	fsys := newFS(t)
	if err := fsys.MkdirAll("a/b"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fsys, "a/b/f", []byte("1")); err != nil {
		t.Fatal(err)
	}
	ents, err := fsys.ReadDir("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "f" || ents[0].IsDir {
		t.Fatalf("ReadDir = %+v", ents)
	}
	if err := fsys.Rename("a/b/f", "a/g"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fsys, "a/g")
	if err != nil || string(got) != "1" {
		t.Fatalf("after rename: %q %v", got, err)
	}
	if err := fsys.Remove("a/g"); err != nil {
		t.Fatal(err)
	}
	info, err := fsys.Stat("a")
	if err != nil || !info.IsDir {
		t.Fatalf("stat a: %+v %v", info, err)
	}
}

func TestTruncateAndSync(t *testing.T) {
	fsys := newFS(t)
	if err := vfs.WriteFile(fsys, "f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Truncate("f", 3); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("f", vfs.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil || info.Size != 3 {
		t.Fatalf("size = %d, err %v", info.Size, err)
	}
	if err := f.Truncate(1); err != nil {
		t.Fatal(err)
	}
	info, _ = f.Stat()
	if info.Size != 1 {
		t.Fatalf("size after file truncate = %d", info.Size)
	}
}

// TestSyncDir: the root and a nested directory sync, a missing one is
// ErrNotExist, and a path climbing out of the root resolves inside it,
// so a directory beside the root is never reached. vfs.Replace, whose
// last step is SyncDir, commits over the host filesystem.
func TestSyncDir(t *testing.T) {
	outer := t.TempDir()
	for _, dir := range []string{"store", "beside"} {
		if err := os.Mkdir(filepath.Join(outer, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	fsys, err := New(filepath.Join(outer, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.MkdirAll("a/b"); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{".", "a/b"} {
		if err := fsys.SyncDir(dir); err != nil {
			t.Errorf("SyncDir(%q): %v", dir, err)
		}
	}
	for _, dir := range []string{"missing", "../beside"} {
		if err := fsys.SyncDir(dir); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("SyncDir(%q) = %v, want ErrNotExist", dir, err)
		}
	}
	if err := vfs.Replace(fsys, "a/b/f", func(f vfs.File) error {
		_, err := f.WriteAt([]byte("replaced"), 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(fsys.Root(), "a", "b", "f")); err != nil || string(got) != "replaced" {
		t.Fatalf("after Replace: %q %v", got, err)
	}
	if ents, err := fsys.ReadDir("a/b"); err != nil || len(ents) != 1 {
		t.Fatalf("a/b holds %v (err %v), want f alone", ents, err)
	}
}

func TestWriteOnReadOnlyHandle(t *testing.T) {
	fsys := newFS(t)
	vfs.WriteFile(fsys, "f", []byte("x"))
	f, err := fsys.Open("f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("y"), 0); !errors.Is(err, vfs.ErrReadOnly) {
		t.Errorf("write on RO handle: %v, want ErrReadOnly", err)
	}
}

func TestNewRejectsFile(t *testing.T) {
	fsys := newFS(t)
	if err := vfs.WriteFile(fsys, "plain", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := New(fsys.Root() + "/plain"); err == nil {
		t.Error("New on a file should fail")
	}
	if _, err := New(fsys.Root() + "/missing"); err == nil {
		t.Error("New on missing dir should fail")
	}
}
