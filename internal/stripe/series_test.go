package stripe_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"crfs/internal/freelist"
	"crfs/internal/stripe"
)

// BenchmarkCheckpointSeries re-checkpoints a job of one object per rank
// over three loopback daemons, two replicas per chunk: each iteration is
// one generation, every rank's object overwritten in turn, as crfscp
// does with one file per rank. In "shared" a generation rewrites one
// chunk in four of every object, rotating; in "unshared" it rewrites
// every chunk. Every chunk of every rank is distinct. The package's
// free-list poisoning is off while it runs.
func BenchmarkCheckpointSeries(b *testing.B) {
	freelist.SetPoison(false)
	defer freelist.SetPoison(true)
	const rankSize, chunk = 1 << 20, 256 << 10
	const chunks = rankSize / chunk
	for _, ranks := range []int{8, 64} {
		for _, tc := range []struct {
			name  string
			dirty int // chunks rewritten per object per generation
		}{{"shared", 1}, {"unshared", chunks}} {
			b.Run(fmt.Sprintf("ranks=%d/%s", ranks, tc.name), func(b *testing.B) {
				s, _ := dialCluster(b, stripe.Config{ChunkSize: chunk, Replicas: 2},
					startOSDaemon(b), startOSDaemon(b), startOSDaemon(b))
				objs := make([][]byte, ranks)
				for r := range objs {
					objs[r] = make([]byte, rankSize)
					for i := range objs[r] {
						objs[r][i] = byte(i ^ i>>11)
					}
					for c := 0; c < chunks; c++ {
						binary.LittleEndian.PutUint64(objs[r][c*chunk+8:], uint64(r<<8|c))
					}
				}
				var body bytes.Reader
				generation := func(gen int) {
					for r, obj := range objs {
						for i := 0; i < tc.dirty; i++ {
							c := (gen*tc.dirty + i) % chunks
							binary.LittleEndian.PutUint64(obj[c*chunk:], uint64(gen))
						}
						body.Reset(obj)
						if err := s.Put(fmt.Sprintf("rank%03d", r), &body, int64(len(obj))); err != nil {
							b.Fatal(err)
						}
					}
				}
				generation(0)
				b.SetBytes(int64(ranks) * rankSize)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					generation(i + 1)
				}
			})
		}
	}
}
