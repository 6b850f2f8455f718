package client_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"crfs/internal/client"
	"crfs/internal/osfs"
)

// loopback is one daemon over a mount on a real directory (memfs would
// dominate both time and allocations) and one client connection to it.
func loopback(tb testing.TB) *client.Client {
	tb.Helper()
	back, err := osfs.New(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	return dialDaemon(tb, startDaemon(tb, back))
}

func dialDaemon(tb testing.TB, addr string) *client.Client {
	tb.Helper()
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// sliceSink restores into a preallocated buffer, so the sink itself
// allocates nothing.
type sliceSink struct {
	buf []byte
	n   int
}

func (w *sliceSink) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.buf) {
		return 0, io.ErrShortBuffer
	}
	w.n += copy(w.buf[w.n:], p)
	return len(p), nil
}

const benchObject = 32 << 20

func benchBody() []byte {
	body := make([]byte, benchObject)
	for i := range body {
		body[i] = byte(i ^ i>>11)
	}
	return body
}

func BenchmarkPutLoopback(b *testing.B) {
	c := loopback(b)
	body := benchBody()
	var r bytes.Reader
	b.SetBytes(benchObject)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if err := c.Put("ckpt", &r, benchObject); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetLoopback(b *testing.B) {
	c := loopback(b)
	body := benchBody()
	if err := c.Put("ckpt", bytes.NewReader(body), benchObject); err != nil {
		b.Fatal(err)
	}
	sink := sliceSink{buf: make([]byte, benchObject)}
	b.SetBytes(benchObject)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.n = 0
		if _, err := c.Get("ckpt", &sink); err != nil {
			b.Fatal(err)
		}
	}
}

// maxWireAllocKiBPerMiB is the CI floor of ROADMAP direction 2: what the
// whole loopback path — client, wire, daemon, mount — may allocate per MiB
// it moves. Fresh frame buffers alone would be 1024 KiB per MiB and
// direction, so the floor fails on the first stage that stops reusing.
const maxWireAllocKiBPerMiB = 16

// TestWireAllocsPerMiB moves 32 MiB each way over loopback after a
// warm-up and holds the process-wide allocation count to the floor.
func TestWireAllocsPerMiB(t *testing.T) {
	c := loopback(t)
	body := benchBody()
	sink := sliceSink{buf: make([]byte, benchObject)}
	var r bytes.Reader
	cycle := func() {
		r.Reset(body)
		if err := c.Put("ckpt", &r, benchObject); err != nil {
			t.Fatal(err)
		}
		sink.n = 0
		if _, err := c.Get("ckpt", &sink); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: fills the free list, opens the mount's pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	if !bytes.Equal(sink.buf, body) {
		t.Fatal("restored bytes differ")
	}
	perMiB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (2 * benchObject >> 20)
	t.Logf("%.2f KiB allocated per MiB moved", perMiB)
	if perMiB > maxWireAllocKiBPerMiB {
		t.Fatalf("%.1f KiB allocated per MiB moved, floor is %d", perMiB, maxWireAllocKiBPerMiB)
	}
}
