package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

func mount(t *testing.T, backend vfs.FS, opts Options) *FS {
	t.Helper()
	fs, err := Mount(backend, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Unmount() })
	return fs
}

func TestMountDefaults(t *testing.T) {
	fs := mount(t, memfs.New(), Options{})
	o := fs.Options()
	if o.BufferPoolSize != DefaultBufferPoolSize || o.ChunkSize != DefaultChunkSize || o.IOThreads != DefaultIOThreads || o.ReadAhead != DefaultReadAhead {
		t.Errorf("defaults not applied: %+v", o)
	}
}

func TestMountInvalidOptions(t *testing.T) {
	if _, err := Mount(memfs.New(), Options{ChunkSize: -1}); err == nil {
		t.Error("negative chunk size accepted")
	}
	if _, err := Mount(memfs.New(), Options{IOThreads: -2}); err == nil {
		t.Error("negative IO threads accepted")
	}
	if _, err := Mount(memfs.New(), Options{ReadAhead: -1}); err == nil {
		t.Error("negative read-ahead depth accepted")
	}
	if _, err := Mount(nil, Options{}); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestWriteCloseRoundtrip(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 64, BufferPoolSize: 256, IOThreads: 2})
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	f, err := fs.Open("ckpt.img", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	// Write in uneven pieces, as BLCR does.
	var off int64
	for _, n := range []int{1, 63, 64, 65, 7, 300, 500} {
		if _, err := f.WriteAt(payload[off:off+int64(n)], off); err != nil {
			t.Fatal(err)
		}
		off += int64(n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// After close every byte must be in the backend (no pending data in
	// CRFS, §IV-C) — readable directly without mounting CRFS (§V-F).
	got, err := vfs.ReadFile(back, "ckpt.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("backend content mismatch: %d bytes vs %d", len(got), len(payload))
	}
}

func TestAggregationReducesBackendWrites(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 1 << 20, BufferPoolSize: 4 << 20})
	f, err := fs.Open("f", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for i := 0; i < 1000; i++ { // 1000 x 4 KB = 4 MB
		buf := make([]byte, 4096)
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		off += 4096
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.Writes != 1000 {
		t.Errorf("Writes = %d, want 1000", st.Writes)
	}
	if st.BackendWrites != 4 { // 4 MB / 1 MB chunks
		t.Errorf("BackendWrites = %d, want 4", st.BackendWrites)
	}
	if r := st.AggregationRatio(); r != 250 {
		t.Errorf("AggregationRatio = %v, want 250", r)
	}
	if back.Stats().Writes != 4 {
		t.Errorf("backend observed %d writes, want 4", back.Stats().Writes)
	}
}

func TestCloseWaitsForOutstandingChunks(t *testing.T) {
	// With a slow backend, Close must still guarantee all data landed.
	back := memfs.New(memfs.WithWriteDelay(2e6)) // 2ms per backend write
	fs := mount(t, back, Options{ChunkSize: 128, BufferPoolSize: 1024, IOThreads: 4})
	f, _ := fs.Open("f", vfs.WriteOnly|vfs.Create)
	data := make([]byte, 128*20)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(back, "f")
	if !bytes.Equal(got, data) {
		t.Fatal("data missing from backend after Close")
	}
}

func TestBackendWriteErrorSurfacesAtClose(t *testing.T) {
	boom := errors.New("disk exploded")
	back := memfs.New(memfs.WithWriteError(0, boom))
	fs := mount(t, back, Options{ChunkSize: 16, BufferPoolSize: 64})
	f, err := fs.Open("f", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	// Fill beyond one chunk so an IO worker performs (and fails) a write.
	if _, err := f.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, boom) {
		t.Errorf("Close error = %v, want injected error", err)
	}
}

func TestBackendWriteErrorSurfacesAtSync(t *testing.T) {
	boom := errors.New("io error")
	back := memfs.New(memfs.WithWriteError(0, boom))
	fs := mount(t, back, Options{ChunkSize: 16, BufferPoolSize: 64})
	f, _ := fs.Open("f", vfs.WriteOnly|vfs.Create)
	if _, err := f.WriteAt(make([]byte, 40), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Errorf("Sync error = %v, want injected error", err)
	}
	// Error is sticky: subsequent writes fail fast.
	if _, err := f.WriteAt([]byte("x"), 200); !errors.Is(err, boom) {
		t.Errorf("write after error = %v, want sticky error", err)
	}
	f.Close()
}

func TestFsyncFlushesPartialChunk(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 1 << 20})
	f, _ := fs.Open("f", vfs.WriteOnly|vfs.Create)
	defer f.Close()
	if _, err := f.WriteAt([]byte("partial"), 0); err != nil {
		t.Fatal(err)
	}
	// Before fsync the tail chunk is buffered, not in the backend.
	if info, _ := back.Stat("f"); info.Size != 0 {
		t.Fatalf("backend size before fsync = %d, want 0", info.Size)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(back, "f")
	if string(got) != "partial" {
		t.Fatalf("after fsync backend = %q", got)
	}
	if back.Stats().Syncs != 1 {
		t.Errorf("backend Sync calls = %d, want 1", back.Stats().Syncs)
	}
}

func TestStatSeesBufferedSize(t *testing.T) {
	fs := mount(t, memfs.New(), Options{ChunkSize: 1 << 20})
	f, _ := fs.Open("f", vfs.WriteOnly|vfs.Create)
	defer f.Close()
	f.WriteAt(make([]byte, 12345), 0)
	info, err := fs.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 12345 {
		t.Errorf("Stat size = %d, want 12345 (buffered)", info.Size)
	}
	finfo, err := f.Stat()
	if err != nil || finfo.Size != 12345 {
		t.Errorf("file Stat = %+v %v", finfo, err)
	}
}

func TestReadAfterWriteSameHandle(t *testing.T) {
	fs := mount(t, memfs.New(), Options{ChunkSize: 1 << 20})
	f, _ := fs.Open("f", vfs.ReadWrite|vfs.Create)
	defer f.Close()
	want := []byte("buffered but readable")
	f.WriteAt(want, 0)
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read-after-write got %q", got)
	}
}

func TestDoubleCloseAndUseAfterClose(t *testing.T) {
	fs := mount(t, memfs.New(), Options{})
	f, _ := fs.Open("f", vfs.WriteOnly|vfs.Create)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, vfs.ErrClosed) {
		t.Errorf("double close = %v, want ErrClosed", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, vfs.ErrClosed) {
		t.Errorf("write after close = %v, want ErrClosed", err)
	}
	if err := f.Sync(); !errors.Is(err, vfs.ErrClosed) {
		t.Errorf("sync after close = %v, want ErrClosed", err)
	}
}

func TestSharedEntryRefcount(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 64})
	f1, err := fs.Open("shared", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs.Open("shared", vfs.WriteOnly|vfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if f1.(*file).entry != f2.(*file).entry {
		t.Fatal("handles of same path must share the file entry")
	}
	f1.WriteAt([]byte("aaaa"), 0)
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	// Entry must survive while f2 is open.
	f2.WriteAt([]byte("bbbb"), 4)
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(back, "shared")
	if string(got) != "aaaabbbb" {
		t.Fatalf("content = %q", got)
	}
	if fs.lookupEntry("shared") != nil {
		t.Error("entry not removed after last close")
	}
}

func TestWriteOnReadOnlyHandle(t *testing.T) {
	back := memfs.New()
	vfs.WriteFile(back, "f", []byte("x"))
	fs := mount(t, back, Options{})
	f, err := fs.Open("f", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("y"), 0); !errors.Is(err, vfs.ErrReadOnly) {
		t.Errorf("write on RO = %v, want ErrReadOnly", err)
	}
}

func TestMetadataPassthrough(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{})
	if err := fs.MkdirAll("a/b"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "a/b/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir("a/b")
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v %v", ents, err)
	}
	if err := fs.Rename("a/b/f", "a/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := back.Stat("a/g"); err != nil {
		t.Errorf("rename did not reach backend: %v", err)
	}
	if err := fs.Truncate("a/g", 2); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(back, "a/g")
	if string(got) != "da" {
		t.Errorf("truncate result %q", got)
	}
	if err := fs.Remove("a/g"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("solo"); err != nil {
		t.Fatal(err)
	}
}

func TestRenameDrainsBufferedData(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 1 << 20})
	f, _ := fs.Open("old", vfs.WriteOnly|vfs.Create)
	f.WriteAt([]byte("buffered"), 0)
	if err := fs.Rename("old", "new"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(back, "new")
	if err != nil || string(got) != "buffered" {
		t.Fatalf("renamed file content = %q, %v", got, err)
	}
	f.Close()
}

func TestTruncateOpenFileDropsBufferedTail(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 1 << 20})
	f, _ := fs.Open("f", vfs.ReadWrite|vfs.Create)
	defer f.Close()
	f.WriteAt([]byte("0123456789"), 0)
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if info.Size != 4 {
		t.Errorf("size after truncate = %d, want 4", info.Size)
	}
	got, _ := vfs.ReadFile(back, "f")
	if string(got) != "0123" {
		t.Errorf("backend after truncate = %q", got)
	}
}

func TestUnmountDrainsAndInvalidates(t *testing.T) {
	back := memfs.New()
	fs, err := Mount(back, Options{ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("f", vfs.WriteOnly|vfs.Create)
	f.WriteAt([]byte("tail"), 0)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(back, "f")
	if string(got) != "tail" {
		t.Errorf("unmount lost buffered data: %q", got)
	}
	if _, err := fs.Open("g", vfs.WriteOnly|vfs.Create); !errors.Is(err, vfs.ErrClosed) {
		t.Errorf("open after unmount = %v, want ErrClosed", err)
	}
	if err := fs.Unmount(); !errors.Is(err, vfs.ErrClosed) {
		t.Errorf("double unmount = %v, want ErrClosed", err)
	}
}

func TestSyncAll(t *testing.T) {
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 1 << 20})
	var files []vfs.File
	for i := 0; i < 4; i++ {
		f, err := fs.Open(fmt.Sprintf("f%d", i), vfs.WriteOnly|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte{byte(i)}, 0)
		files = append(files, f)
	}
	if err := fs.SyncAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := vfs.ReadFile(back, fmt.Sprintf("f%d", i))
		if err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Errorf("f%d after SyncAll: %v %v", i, got, err)
		}
	}
	for _, f := range files {
		f.Close()
	}
}

func TestZeroIOThreadsWithPoolLargerThanData(t *testing.T) {
	// IOThreads: 0 falls back to default (4); explicit check the option
	// plumbing treats 0 as "default", not "no workers".
	fs := mount(t, memfs.New(), Options{IOThreads: 0})
	if fs.Options().IOThreads != DefaultIOThreads {
		t.Fatalf("IOThreads = %d", fs.Options().IOThreads)
	}
}

func TestConcurrentCheckpointWriters(t *testing.T) {
	// The paper's scenario: N processes each write their own checkpoint
	// file concurrently through one CRFS mount.
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 4096, BufferPoolSize: 16384, IOThreads: 4})
	const writers = 8
	const fileSize = 64 * 1024
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			name := fmt.Sprintf("ckpt/rank%d.img", w)
			fs.MkdirAll("ckpt")
			f, err := fs.Open(name, vfs.WriteOnly|vfs.Create)
			if err != nil {
				t.Error(err)
				return
			}
			var off int64
			for off < fileSize {
				n := 1 + rng.Intn(2000) // small writes, < chunk size
				if off+int64(n) > fileSize {
					n = int(fileSize - off)
				}
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = byte(w)
				}
				if _, err := f.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				off += int64(n)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		got, err := vfs.ReadFile(back, fmt.Sprintf("ckpt/rank%d.img", w))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != fileSize {
			t.Fatalf("rank %d: size %d", w, len(got))
		}
		for i, b := range got {
			if b != byte(w) {
				t.Fatalf("rank %d byte %d = %d", w, i, b)
			}
		}
	}
	if fs.Stats().BackendWrites >= fs.Stats().Writes {
		t.Errorf("no aggregation: %d backend vs %d app writes",
			fs.Stats().BackendWrites, fs.Stats().Writes)
	}
}

func TestPoolBackpressureSmallPool(t *testing.T) {
	// Pool of exactly one chunk: writers must block on the pool and
	// progress must still be made (no deadlock).
	back := memfs.New(memfs.WithWriteDelay(1e5))
	fs := mount(t, back, Options{ChunkSize: 512, BufferPoolSize: 512, IOThreads: 1})
	f, _ := fs.Open("f", vfs.WriteOnly|vfs.Create)
	data := make([]byte, 512*8)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().PoolWaits == 0 {
		t.Error("expected pool waits with single-chunk pool")
	}
	if info, _ := back.Stat("f"); info.Size != 512*8 {
		t.Errorf("backend size = %d", info.Size)
	}
}

// Property: for any write-piece decomposition of a payload, the backend
// bytes after Close equal the payload.
func TestSequentialDecompositionProperty(t *testing.T) {
	f := func(pieces []uint16, chunkPow uint8) bool {
		chunkSize := int64(64) << (chunkPow % 5) // 64..1024
		back := memfs.New()
		cfs, err := Mount(back, Options{ChunkSize: chunkSize, BufferPoolSize: 4 * chunkSize, IOThreads: 2})
		if err != nil {
			return false
		}
		defer cfs.Unmount()
		fh, err := cfs.Open("f", vfs.WriteOnly|vfs.Create)
		if err != nil {
			return false
		}
		var off int64
		for _, p := range pieces {
			n := int64(p % 3000)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte((off + int64(i)) % 251)
			}
			if _, err := fh.WriteAt(buf, off); err != nil {
				return false
			}
			off += n
		}
		if err := fh.Close(); err != nil {
			return false
		}
		got, err := vfs.ReadFile(back, "f")
		if err != nil && off > 0 {
			return false
		}
		if int64(len(got)) != off {
			return false
		}
		for i, b := range got {
			if b != byte(i%251) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMoreFilesThanPoolChunksNoDeadlock(t *testing.T) {
	// 8 files over a 4-chunk pool: every chunk can end up pinned as some
	// file's partial buffer. The pressure-reclaim path must flush
	// partials so writers always make progress (a deadlock corner the
	// paper's design leaves open).
	back := memfs.New()
	fs := mount(t, back, Options{ChunkSize: 4096, BufferPoolSize: 16384, IOThreads: 2})
	const files = 8
	var wg sync.WaitGroup
	for w := 0; w < files; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := fs.Open(fmt.Sprintf("f%d", w), vfs.WriteOnly|vfs.Create)
			if err != nil {
				t.Error(err)
				return
			}
			// Small writes that leave partial chunks pinned.
			for i := 0; i < 20; i++ {
				if _, err := f.WriteAt(make([]byte, 100), int64(i*100)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: writers did not complete")
	}
	for w := 0; w < files; w++ {
		info, err := back.Stat(fmt.Sprintf("f%d", w))
		if err != nil || info.Size != 2000 {
			t.Errorf("f%d: %v size=%d", w, err, info.Size)
		}
	}
}
