package core

import (
	"bytes"
	"sync"
	"testing"

	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// TestOpenRacesLastClose is the core-level reproduction of the
// TestConcurrentClientsSharedNames flake: goroutines looping
// Open+ReadAt+Close on one name keep driving the entry's refcount through
// zero, so some Open always runs beside some last Close. An Open that
// found the entry in the table must get a live backend handle — the
// releaser may not close it between dropping the last reference and
// unlinking the entry. Run with -race.
func TestOpenRacesLastClose(t *testing.T) {
	back := memfs.New()
	want := bytes.Repeat([]byte("checkpoint"), 100)
	if err := vfs.WriteFile(back, "x", want); err != nil {
		t.Fatal(err)
	}
	fs := mount(t, back, Options{ChunkSize: 4096, BufferPoolSize: 64 << 10, IOThreads: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, len(want))
			for i := 0; i < 400; i++ {
				f, err := fs.Open("x", vfs.ReadOnly)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if _, err := f.ReadAt(got, 0); err != nil {
					t.Errorf("read through a freshly opened handle: %v", err)
				} else if !bytes.Equal(got, want) {
					t.Error("read through a freshly opened handle: wrong bytes")
				}
				if err := f.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
				if t.Failed() {
					return
				}
			}
		}()
	}
	wg.Wait()
}
