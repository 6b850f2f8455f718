package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/memfs"
)

// TestEncodeScratchHighWater: a framed checkpoint of many chunks holds
// at most one encode buffer per IO worker, and gives every one back.
func TestEncodeScratchHighWater(t *testing.T) {
	const chunk, chunks, threads = 64 << 10, 12, 2
	fs := mount(t, memfs.New(), Options{Codec: codec.Deflate(), ChunkSize: chunk, IOThreads: threads})
	want := compressiblePayload(chunks*chunk, 3)
	writeThrough(t, fs, "img", want, 16<<10)
	if n := fs.encBufs.HighWater(); n == 0 || n > threads {
		t.Errorf("%d encode buffers out at once, want 1..%d (IOThreads)", n, threads)
	}
	if n := fs.encBufs.Held(); n != 0 {
		t.Errorf("%d encode buffers not given back", n)
	}
	if got := readThrough(t, fs, "img"); string(got) != string(want) {
		t.Error("restored bytes differ")
	}
}

// TestIncompressibleChunksReuseEncodeScratch: a chunk deflate cannot
// shrink — random bytes, or pages of bytes spread evenly over 230 to 240
// values, next to the flat-page line — comes out of the encoder a little
// longer than it went in before EncodeFrame's raw bailout stores it. The
// overshoot must fit the encode scratch: a checkpoint of such chunks
// holds no more encode buffers than there are IO workers, and once the
// mount is warm allocates far less than a chunk per chunk.
func TestIncompressibleChunksReuseEncodeScratch(t *testing.T) {
	const chunk, chunks, threads = 4 << 20, 4, 2
	corpora := []struct {
		name  string
		spans func(rng *rand.Rand) int // values a page's bytes spread over
	}{
		{"random", func(*rand.Rand) int { return 256 }},
		{"near-band", func(rng *rand.Rand) int { return 230 + rng.Intn(11) }},
	}
	for _, cp := range corpora {
		t.Run(cp.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			img := make([]byte, chunks*chunk)
			for p := 0; p < len(img); p += 4096 {
				k := cp.spans(rng)
				for i := p; i < p+4096; i++ {
					img[i] = byte(rng.Intn(k))
				}
			}
			fs := mount(t, memfs.New(memfs.WithDiscard()), Options{Codec: codec.Deflate(), IOThreads: threads})
			// Warm: one encode buffer per worker exists, as after any
			// load that kept both busy, and so do the encoders.
			scratch := [][]byte{fs.encBufs.Get(1), fs.encBufs.Get(1)}
			room := cap(scratch[0]) - codec.HeaderSize - chunk
			for _, b := range scratch {
				fs.encBufs.Put(b)
			}
			over := 0
			for c := 0; c < chunks; c++ {
				enc, _ := codec.Deflate().Encode(nil, img[c*chunk:(c+1)*chunk])
				over = max(over, len(enc)-chunk)
			}
			if over <= 0 || over > room {
				t.Fatalf("encoder overshoots a chunk by at most %d bytes; the test needs 1..%d", over, room)
			}
			t.Logf("encoder output overshoots a chunk by up to %d bytes (scratch headroom %d)", over, room)
			writeThrough(t, fs, "warm", img[:threads*chunk], chunk)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			writeThrough(t, fs, "img", img, 1<<20)
			runtime.ReadMemStats(&after)
			if n := fs.encBufs.HighWater(); n > threads {
				t.Errorf("%d encode buffers out at once, want at most %d (IOThreads)", n, threads)
			}
			// A scratch buffer the frame outgrew costs a 5 MiB allocation
			// per chunk; what may remain is the encoders a sync.Pool
			// sheds (≈ 460 KiB each, often under -race).
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("a warm checkpoint of %d chunks allocated %d KiB", chunks, alloc>>10)
			if alloc >= chunks*chunk/4 {
				t.Errorf("%d KiB per chunk; a chunk is %d KiB", alloc>>10/chunks, chunk>>10)
			}
		})
	}
}
