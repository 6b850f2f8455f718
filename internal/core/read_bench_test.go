package core

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"crfs/internal/memfs"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// benchmarkMixedReadWrite drives a 50/50 read/write workload (one 8 KB
// read per 8 KB write) against a slow backend. drain=true reproduces the
// pre-overlay read path — flush the partial chunk and wait for the
// pipeline before every read — so the pair of benchmarks quantifies the
// stall the buffered-read-through overlay removes.
func benchmarkMixedReadWrite(b *testing.B, drain bool) {
	const bs = 8192
	back := memfs.New(memfs.WithWriteDelay(200 * time.Microsecond))
	fs, err := Mount(back, Options{ChunkSize: 64 << 10, BufferPoolSize: 2 << 20, IOThreads: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	f, err := fs.Open("bench", vfs.ReadWrite|vfs.Create)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	wbuf := make([]byte, bs)
	for i := range wbuf {
		wbuf[i] = byte(i % 251)
	}
	rbuf := make([]byte, bs)
	rng := rand.New(rand.NewSource(1))
	var off int64
	b.SetBytes(2 * bs) // one write + one read per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(wbuf, off); err != nil {
			b.Fatal(err)
		}
		off += bs
		if drain {
			e := f.(*file).entry
			e.flushTail()
			if err := e.waitDrained(); err != nil {
				b.Fatal(err)
			}
		}
		// Random offsets near the tail read short (io.EOF): expected.
		if _, err := f.ReadAt(rbuf, rng.Int63n(off)); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := fs.Stats()
	b.ReportMetric(float64(st.ReadsFromBuffer), "buffered-reads")
	b.ReportMetric(float64(st.ReadDrainsAvoided), "drains-avoided")
}

// BenchmarkMixedReadWriteOverlay is the buffered-read-through path: reads
// are served from in-flight chunks without stalling the write pipeline.
func BenchmarkMixedReadWriteOverlay(b *testing.B) { benchmarkMixedReadWrite(b, false) }

// BenchmarkMixedReadWriteDrain emulates the pre-overlay read path, which
// collapsed the asynchronous pipeline on every read of a dirty file.
func BenchmarkMixedReadWriteDrain(b *testing.B) { benchmarkMixedReadWrite(b, true) }

// tracedMixRun writes a 256 MiB image in 8 KiB calls over an undelayed
// in-memory backend (a delay would hide span cost), every second
// operation on average a read of an offset already written, and returns
// the MiB/s moved. traced selects whether the mount's tracer records
// spans; both arms pay the same Options plumbing, so the pair isolates
// the span fast path.
func tracedMixRun(b *testing.B, traced bool) float64 {
	const size, bs = 256 << 20, 8192
	tr := obs.New(obs.DefaultRingCapacity)
	tr.SetEnabled(traced)
	fs, err := Mount(memfs.New(), Options{Tracer: tr})
	if err != nil {
		b.Fatal(err)
	}
	f, err := fs.Open("bench.img", vfs.ReadWrite|vfs.Create)
	if err != nil {
		b.Fatal(err)
	}
	// Half of every write is fresh bytes from a sliding window over a
	// chunk-sized random pool.
	pool := make([]byte, DefaultChunkSize+bs)
	rng := rand.New(rand.NewSource(1))
	rng.Read(pool)
	wbuf, rbuf := make([]byte, bs), make([]byte, bs)
	start := time.Now()
	for off := int64(0); off < size; {
		if off > 0 && rng.Float64() < 0.5 {
			if _, err := f.ReadAt(rbuf, rng.Int63n(off)); err != nil && err != io.EOF {
				b.Fatal(err)
			}
			continue
		}
		copy(wbuf[:bs/2], pool[off%DefaultChunkSize:])
		if _, err := f.WriteAt(wbuf, off); err != nil {
			b.Fatal(err)
		}
		off += bs
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		b.Fatal(err)
	}
	el := time.Since(start).Seconds()
	st := fs.Stats()
	return float64(st.BytesWritten+st.BytesRead) / el / (1 << 20)
}

// BenchmarkTracingOverhead reports what recording every pipeline span
// costs: the mix with the tracer disabled against the same mix with it
// enabled. Each arm counts its best of three runs, taken alternately so
// that a drifting machine slows both. It compares wall clocks on a mix
// bound by memory speed, so one run resolves nothing and it gates
// nothing: the disabled path is held by TestDisabledSpanIsFree,
// TestHistogramObserveNoAlloc, TestCoreAllocsPerCall and the obshot
// analyzer, the enabled cost is read from the repo benchmark's
// trace.overhead_pct.
func BenchmarkTracingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var off, on float64
		for run := 0; run < 3; run++ {
			off = max(off, tracedMixRun(b, false))
			on = max(on, tracedMixRun(b, true))
		}
		b.ReportMetric(off, "off-MiB/s")
		b.ReportMetric(on, "on-MiB/s")
		b.ReportMetric((off-on)/off*100, "overhead-%")
	}
}
