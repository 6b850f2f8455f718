package codec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// Frame encode/decode microbenchmarks, split by codec, frame version and
// payload. The v1-vs-v2 delta is the isolated cost of the CRC32-C over
// the uncompressed payload — the number the "checksum overhead" table
// in EXPERIMENTS.md reports, free of mount-level noise. The entropy-0.5
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
			for _, ver := range []uint8{Version1, Version2} {
				b.Run(fmt.Sprintf("%s/v%d%s", c.Name(), ver, p.suffix), func(b *testing.B) {
					b.SetBytes(int64(len(payload)))
					b.ReportAllocs()
					var buf []byte
					for i := 0; i < b.N; i++ {
						var err error
						buf, _, err = EncodeFrameVersion(c, ver, uint64(i), 0, payload, buf[:0])
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	for _, p := range benchPayloads(b) {
		payload := p.data
		for _, c := range []Codec{Raw(), Deflate()} {
			for _, ver := range []uint8{Version1, Version2} {
				frame, hdr, err := EncodeFrameVersion(c, ver, 0, 0, payload, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/v%d%s", c.Name(), ver, p.suffix), func(b *testing.B) {
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
			}
		}
	}
}
