package memfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"crfs/internal/vfs"
)

func TestWriteReadRoundtrip(t *testing.T) {
	m := New()
	want := []byte("hello checkpoint world")
	if err := vfs.WriteFile(m, "/ckpt/../f.img", want); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(m, "f.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestOpenSemantics(t *testing.T) {
	m := New()
	if _, err := m.Open("missing", vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("open missing: err = %v, want ErrNotExist", err)
	}
	f, err := m.Open("a", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("xy"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, vfs.ErrReadOnly) {
		t.Errorf("read of write-only file: err = %v, want ErrReadOnly", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, vfs.ErrClosed) {
		t.Errorf("double close: err = %v, want ErrClosed", err)
	}
	if _, err := f.WriteAt([]byte("z"), 0); !errors.Is(err, vfs.ErrClosed) {
		t.Errorf("write after close: err = %v, want ErrClosed", err)
	}
	if _, err := m.Open("a", vfs.WriteOnly|vfs.Create|vfs.Excl); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("excl create of existing: err = %v, want ErrExist", err)
	}
	// Trunc resets contents.
	f2, err := m.Open("a", vfs.ReadWrite|vfs.Trunc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f2.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 0 {
		t.Errorf("size after trunc = %d, want 0", info.Size)
	}
	f2.Close()
}

func TestSparseWrite(t *testing.T) {
	m := New()
	f, err := m.Open("sparse", vfs.ReadWrite|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xFF}, 100); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if info.Size != 101 {
		t.Fatalf("size = %d, want 101", info.Size)
	}
	buf := make([]byte, 101)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[100] != 0xFF {
		t.Errorf("hole not zero-filled or data lost: %v %v", buf[0], buf[100])
	}
}

func TestReadAtEOF(t *testing.T) {
	m := New()
	if err := vfs.WriteFile(m, "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Open("f", vfs.ReadOnly)
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 1)
	if n != 2 || err != io.EOF {
		t.Errorf("ReadAt = (%d,%v), want (2,EOF)", n, err)
	}
	if _, err := f.ReadAt(buf, 3); err != io.EOF {
		t.Errorf("ReadAt past end: err = %v, want EOF", err)
	}
}

func TestDirOps(t *testing.T) {
	m := New()
	if err := m.MkdirAll("a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir("a/b"); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("mkdir existing: %v, want ErrExist", err)
	}
	if err := vfs.WriteFile(m, "a/b/f1", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(m, "a/b/f0", []byte("0")); err != nil {
		t.Fatal(err)
	}
	ents, err := m.ReadDir("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 || ents[0].Name != "c" || ents[1].Name != "f0" || ents[2].Name != "f1" {
		t.Fatalf("ReadDir = %v", ents)
	}
	if !ents[0].IsDir || ents[1].IsDir {
		t.Errorf("IsDir flags wrong: %v", ents)
	}
	if err := m.Remove("a/b"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Errorf("remove non-empty: %v, want ErrNotEmpty", err)
	}
	if err := m.Remove("a/b/f0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("a/b/f0"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("stat removed: %v, want ErrNotExist", err)
	}
	// Open with missing parent fails.
	if _, err := m.Open("no/such/file", vfs.WriteOnly|vfs.Create); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("create under missing dir: %v, want ErrNotExist", err)
	}
	// Open a directory fails.
	if _, err := m.Open("a", vfs.ReadOnly); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("open dir: %v, want ErrIsDir", err)
	}
}

func TestRename(t *testing.T) {
	m := New()
	if err := m.MkdirAll("d1/sub"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(m, "d1/sub/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("d1", "d2"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(m, "d2/sub/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Fatalf("after rename: %q", got)
	}
	if _, err := m.Stat("d1"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("old dir still exists: %v", err)
	}
	// File rename over existing file replaces it.
	vfs.WriteFile(m, "x", []byte("xx"))
	vfs.WriteFile(m, "y", []byte("yy"))
	if err := m.Rename("x", "y"); err != nil {
		t.Fatal(err)
	}
	got, _ = vfs.ReadFile(m, "y")
	if string(got) != "xx" {
		t.Errorf("rename over existing: got %q", got)
	}
}

func TestTruncate(t *testing.T) {
	m := New()
	vfs.WriteFile(m, "f", []byte("0123456789"))
	if err := m.Truncate("f", 4); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(m, "f")
	if string(got) != "0123" {
		t.Fatalf("after shrink: %q", got)
	}
	if err := m.Truncate("f", 8); err != nil {
		t.Fatal(err)
	}
	got, _ = vfs.ReadFile(m, "f")
	if !bytes.Equal(got, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("after grow: %v", got)
	}
	if err := m.Truncate("f", -1); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("negative truncate: %v", err)
	}
}

func TestDiscardMode(t *testing.T) {
	m := New(WithDiscard())
	f, err := m.Open("big", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if info.Size != 1<<20 {
		t.Errorf("discard size = %d, want 1MB", info.Size)
	}
	f.Close()
	st := m.Stats()
	if st.BytesWritten != 1<<20 {
		t.Errorf("BytesWritten = %d", st.BytesWritten)
	}
	// Reads return zeros.
	rf, _ := m.Open("big", vfs.ReadOnly)
	defer rf.Close()
	buf := []byte{1, 2, 3}
	if _, err := rf.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
		t.Errorf("discard read = %v, want zeros", buf)
	}
}

func TestWriteErrorInjection(t *testing.T) {
	boom := errors.New("boom")
	m := New(WithWriteError(2, boom))
	f, _ := m.Open("f", vfs.WriteOnly|vfs.Create)
	defer f.Close()
	for i := 0; i < 2; i++ {
		if _, err := f.WriteAt([]byte("x"), int64(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := f.WriteAt([]byte("x"), 2); !errors.Is(err, boom) {
		t.Errorf("third write: %v, want boom", err)
	}
}

func TestTornWriteInjection(t *testing.T) {
	m := New(WithTornWrite(1, 0.5))
	f, _ := m.Open("f", vfs.WriteOnly|vfs.Create)
	defer f.Close()
	if _, err := f.WriteAt([]byte("durable!"), 0); err != nil {
		t.Fatalf("first write: %v", err)
	}
	// The second write tears: half the payload persists, then it fails.
	n, err := f.WriteAt([]byte("torntorn"), 8)
	if !errors.Is(err, ErrTornWrite) {
		t.Fatalf("torn write error = %v, want ErrTornWrite", err)
	}
	if n != 4 {
		t.Fatalf("torn write persisted %d bytes, want 4", n)
	}
	if info, _ := m.Stat("f"); info.Size != 12 {
		t.Fatalf("size after torn write = %d, want 12", info.Size)
	}
	// Exactly one write is torn; later writes succeed.
	if _, err := f.WriteAt([]byte("recovered"), 12); err != nil {
		t.Fatalf("write after tear: %v", err)
	}
	got, err := vfs.ReadFile(m, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable!tornrecovered" {
		t.Fatalf("content = %q", got)
	}
}

func TestTornWriteZeroFraction(t *testing.T) {
	m := New(WithTornWrite(0, 0))
	f, _ := m.Open("f", vfs.WriteOnly|vfs.Create)
	defer f.Close()
	n, err := f.WriteAt([]byte("gone"), 0)
	if !errors.Is(err, ErrTornWrite) || n != 0 {
		t.Fatalf("zero-fraction tear = (%d, %v), want (0, ErrTornWrite)", n, err)
	}
	// Nothing persisted: the file must not have grown.
	if info, _ := m.Stat("f"); info.Size != 0 {
		t.Fatalf("size after zero-fraction tear = %d, want 0", info.Size)
	}
}

func TestCapacity(t *testing.T) {
	m := New(WithCapacity(10))
	f, _ := m.Open("f", vfs.WriteOnly|vfs.Create)
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 10), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 1), 10); !errors.Is(err, vfs.ErrNoSpace) {
		t.Errorf("over-capacity write: %v, want ErrNoSpace", err)
	}
	// Removing frees space.
	if err := m.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(m, "g", make([]byte, 10)); err != nil {
		t.Errorf("write after free: %v", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	m := New()
	const workers = 8
	const per = 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := m.Open("shared", vfs.WriteOnly|vfs.Create)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			for i := 0; i < per; i++ {
				off := int64(w*per + i)
				if _, err := f.WriteAt([]byte{byte(w)}, off); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := vfs.ReadFile(m, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*per {
		t.Fatalf("len = %d, want %d", len(got), workers*per)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			if got[w*per+i] != byte(w) {
				t.Fatalf("byte %d = %d, want %d", w*per+i, got[w*per+i], w)
			}
		}
	}
}

// Property: any sequence of random positional writes through memfs matches
// a flat in-memory byte-array model.
func TestWriteAtModelProperty(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		m := New()
		file, err := m.Open("f", vfs.ReadWrite|vfs.Create)
		if err != nil {
			return false
		}
		defer file.Close()
		model := []byte{}
		for _, o := range ops {
			off := int64(o.Off % 4096)
			if _, err := file.WriteAt(o.Data, off); err != nil {
				return false
			}
			end := off + int64(len(o.Data))
			if end > int64(len(model)) {
				grown := make([]byte, end)
				copy(grown, model)
				model = grown
			}
			copy(model[off:end], o.Data)
		}
		got, err := vfs.ReadFile(m, "f")
		if err != nil && len(model) > 0 {
			return false
		}
		return bytes.Equal(got, model)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReadErrorInjection(t *testing.T) {
	rot := errors.New("bit rot")
	m := New(WithReadError(2, rot))
	if err := vfs.WriteFile(m, "f", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Open("f", vfs.ReadOnly)
	defer f.Close()
	buf := make([]byte, 2)
	for i := 0; i < 2; i++ {
		if _, err := f.ReadAt(buf, int64(2*i)); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	// Media has gone bad: every read from here on fails.
	for i := 0; i < 2; i++ {
		if _, err := f.ReadAt(buf, 4); !errors.Is(err, rot) {
			t.Errorf("read after fault: %v, want bit rot", err)
		}
	}
}

// TestExtendAfterShrinkReadsZeros pins the zero-fill of geometric growth:
// bytes a shrink left in the slice's spare capacity must never resurface
// when a later write or truncate extends the file again.
func TestExtendAfterShrinkReadsZeros(t *testing.T) {
	m := New(WithCapacity(64))
	vfs.WriteFile(m, "f", bytes.Repeat([]byte{0xEE}, 32))
	if err := m.Truncate("f", 4); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Open("f", vfs.ReadWrite)
	defer f.Close()
	if _, err := f.WriteAt([]byte{1}, 19); err != nil { // sparse write inside the old capacity
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(m, "f")
	want := append(bytes.Repeat([]byte{0xEE}, 4), make([]byte, 16)...)
	want[19] = 1
	if !bytes.Equal(got, want) {
		t.Fatalf("after shrink+extend: %v", got)
	}
	// Accounting follows the file's length, never its capacity: 20 of 64
	// bytes are used, so exactly 44 more fit.
	if _, err := f.WriteAt(make([]byte, 45), 20); !errors.Is(err, vfs.ErrNoSpace) {
		t.Errorf("write past capacity: %v, want ErrNoSpace", err)
	}
	if _, err := f.WriteAt(make([]byte, 44), 20); err != nil {
		t.Errorf("write up to capacity: %v", err)
	}
}

// TestSmallAppendsGrowGeometrically is the regression test for the
// quadratic extend: appending n small writes must copy O(n) bytes, not
// the whole file once per write. It judges allocated bytes, not
// allocations: under -race extend's append(data, make(...)...) allocates
// its zero tail (one small object per write) while growth stays geometric.
func TestSmallAppendsGrowGeometrically(t *testing.T) {
	m := New()
	const writes = 4096
	p := make([]byte, 64)
	f, err := m.Open("f", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		if _, err := f.WriteAt(p, int64(i*len(p))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// One full copy per write is writes²/2 × 64 B = 512 MiB; doubling is
	// under 1 MiB for the 256 KiB file.
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("%d appending writes allocated %d bytes for a %d-byte file; growth is not amortized", writes, got, writes*len(p))
	}
}

// BenchmarkAppendSmallWrites extends one file to 16 MiB in 4 KiB writes —
// the shape every unit test and fault harness above memfs produces.
func BenchmarkAppendSmallWrites(b *testing.B) {
	p := make([]byte, 4096)
	b.SetBytes(16 << 20)
	for i := 0; i < b.N; i++ {
		m := New()
		f, _ := m.Open("f", vfs.WriteOnly|vfs.Create)
		for off := int64(0); off < 16<<20; off += int64(len(p)) {
			if _, err := f.WriteAt(p, off); err != nil {
				b.Fatal(err)
			}
		}
		f.Close()
	}
}
