package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// inflightFS wraps a backend and keeps, for WriteAt and ReadAt apart, the
// most calls that were ever inside it at once, over all of its files.
type inflightFS struct {
	vfs.FS
	writes, reads inflight
}

// inflight counts the calls currently inside and the peak of that count.
// With met set, a call that enters waits (a second at most) until meet
// calls have been inside together: whether two workers' backend calls
// overlap then does not hang on how long each spent encoding before it,
// which under -race is ten times the backend's delay.
type inflight struct {
	now, peak atomic.Int64
	meet      int64
	met       chan struct{} // closed once meet calls were inside together
	once      sync.Once
}

func (g *inflight) enter() {
	n := g.now.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	if g.met == nil {
		return
	}
	if n >= g.meet {
		g.once.Do(func() { close(g.met) })
	}
	select {
	case <-g.met:
	case <-time.After(time.Second): // workers that never overlap: fail on the peak
	}
}

func (g *inflight) exit() { g.now.Add(-1) }

func (b *inflightFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	f, err := b.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &inflightFile{File: f, b: b}, nil
}

type inflightFile struct {
	vfs.File
	b *inflightFS
}

func (f *inflightFile) WriteAt(p []byte, off int64) (int, error) {
	f.b.writes.enter()
	defer f.b.writes.exit()
	return f.File.WriteAt(p, off)
}

func (f *inflightFile) ReadAt(p []byte, off int64) (int, error) {
	f.b.reads.enter()
	defer f.b.reads.exit()
	return f.File.ReadAt(p, off)
}

// TestBackendCallsBoundedByIOThreads: the IO workers are the only callers
// that reach the backend on the mount's behalf (§IV-B, "Work Queue and IO
// Throttling"), so backend calls in flight never exceed IOThreads plus the
// application's own synchronous ones. Four writers fill twice the pool over
// a slow backend: at most IOThreads chunk writes are ever in flight at once
// (the throttle), and IOThreads do meet there (the workers overlap).
// Then one reader streams a file in chunk-sized reads, past selfFetchMax,
// with read-ahead eight deep: its own misses add one read to the workers'.
func TestBackendCallsBoundedByIOThreads(t *testing.T) {
	const (
		chunk     = 64 << 10
		ioThreads = 2
		writers   = 4
	)
	data := make([]byte, 8*chunk)
	rand.New(rand.NewSource(5)).Read(data)
	for _, tc := range []struct {
		name string
		cdc  codec.Codec
	}{
		{"raw", nil},
		{"deflate", codec.Deflate()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			back := &inflightFS{FS: memfs.New(
				memfs.WithWriteDelay(2*time.Millisecond), memfs.WithReadDelay(2*time.Millisecond))}
			back.writes.meet, back.writes.met = ioThreads, make(chan struct{})
			fs := mount(t, back, Options{
				ChunkSize: chunk, BufferPoolSize: 16 * chunk, IOThreads: ioThreads,
				ReadAhead: 8, Codec: tc.cdc,
			})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					f, err := fs.Open(name, vfs.WriteOnly|vfs.Create|vfs.Trunc)
					if err != nil {
						t.Error(err)
						return
					}
					for off := 0; off < len(data); off += chunk {
						if _, err := f.WriteAt(data[off:off+chunk], int64(off)); err != nil {
							t.Error(err)
							break
						}
					}
					if err := f.Close(); err != nil {
						t.Error(err)
					}
				}(fmt.Sprintf("ckpt%d", w))
			}
			wg.Wait()
			if got := back.writes.peak.Load(); got != ioThreads {
				t.Errorf("%d backend writes in flight at once, want exactly IOThreads = %d", got, ioThreads)
			}

			back.reads.peak.Store(0) // the writers' opens read nothing the bound is about
			f, err := fs.Open("ckpt0", vfs.ReadOnly)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			readSequential(t, f, data, chunk)
			t.Logf("peak in flight: %d writes, %d reads", back.writes.peak.Load(), back.reads.peak.Load())
			if got := back.reads.peak.Load(); got > ioThreads+1 {
				t.Errorf("%d backend reads in flight at once, want at most IOThreads+1 = %d", got, ioThreads+1)
			}
			if fs.Stats().PrefetchedBytes == 0 {
				t.Error("the stream was never read ahead: the read bound checked nothing")
			}
		})
	}
}
