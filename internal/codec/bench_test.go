package codec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// Frame encode/decode microbenchmarks, split by codec and payload; each
// name carries the frame version (v2), which the numbers EXPERIMENTS.md
// reports are filed under. The entropy-0.5
// payload is the repository benchmark's page mix (even 4 KiB pages
// random, odd ones text), whose random half deflate stores; it comes at
// 64 KiB and at 4 MiB, the chunk an IO worker encodes, whose 1024 pages
// show what a cost per page or per run adds up to. The first 4 MiB of the
// test binary are real data without long repeats, where the match search
// walks its hash chains instead of extending 258-byte matches.

func benchPayload() []byte {
	return bytes.Repeat([]byte("checkpoint restart state, mildly compressible. "), 64<<10/47)
}

// benchPayloads are the payloads, by sub-benchmark suffix.
func benchPayloads(b testing.TB) []struct {
	suffix string
	data   []byte
} {
	return []struct {
		suffix string
		data   []byte
	}{
		{"", benchPayload()},
		{"/entropy-0.5", pages(strings.Repeat("RT", 8), 1)},
		{"/entropy-0.5-4MiB", pages(strings.Repeat("RT", 512), 1)},
		{"/binary-4MiB", executable(b, 4<<20)},
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	for _, p := range benchPayloads(b) {
		payload := p.data
		for _, c := range []Codec{Raw(), Deflate()} {
			b.Run(fmt.Sprintf("%s/v%d%s", c.Name(), Version, p.suffix), func(b *testing.B) {
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				var buf []byte
				for i := 0; i < b.N; i++ {
					var err error
					buf, _, err = EncodeFrame(c, uint64(i), 0, payload, buf[:0])
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// coldDst is the rotation of destination buffers the -cold decode rows
// write to: 64 MiB, more than the caches hold, so every frame lands in
// memory untouched since its last turn, as a restore's frames do. A pass
// over the decoded frame then costs what a pass over memory costs, which
// a reused hot buffer hides.
func coldDst(size int) [][]byte {
	bufs := make([][]byte, 64<<20/size)
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{0xDB}, size)[:0] // faulted in before timing
	}
	return bufs
}

func BenchmarkDecodeFrame(b *testing.B) {
	var cold [][]byte
	for _, p := range benchPayloads(b) {
		payload := p.data
		for _, c := range []Codec{Raw(), Deflate()} {
			frame, hdr, err := EncodeFrame(c, 0, 0, payload, nil)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/v%d%s", c.Name(), Version, p.suffix)
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				// Presized, as the mount's read path hands it over: a decode
				// into a buffer that already fits allocates nothing.
				buf := make([]byte, 0, len(payload))
				for i := 0; i < b.N; i++ {
					buf, err = DecodeFrame(hdr, frame[HeaderSize:], buf[:0])
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			if p.suffix != "/entropy-0.5-4MiB" {
				continue
			}
			b.Run(name+"-cold", func(b *testing.B) {
				if cold == nil {
					cold = coldDst(len(payload))
				}
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf := cold[i%len(cold)]
					if _, err = DecodeFrame(hdr, frame[HeaderSize:], buf[:0]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
