package stripe_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	crfs "crfs"
	"crfs/internal/osfs"
	"crfs/internal/server"
	"crfs/internal/stripe"
)

// startOSDaemon serves a default mount over a real directory (memfs would
// dominate both time and allocations) on loopback until the test ends.
func startOSDaemon(tb testing.TB) string {
	addr, _ := osDaemon(tb)
	return addr
}

// osDaemon is startOSDaemon returning the daemon's mount too.
func osDaemon(tb testing.TB) (string, *crfs.FS) {
	tb.Helper()
	back, err := osfs.New(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := crfs.Mount(back, crfs.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	srv := server.New(fs, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fs.Unmount()
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		fs.Unmount()
	})
	return ln.Addr().String(), fs
}

// dialCluster dials one node per address under the IDs n0, n1, ...
func dialCluster(tb testing.TB, cfg stripe.Config, addrs ...string) (*stripe.Store, []stripe.Node) {
	tb.Helper()
	nodes := make([]stripe.Node, len(addrs))
	for i, addr := range addrs {
		n, err := stripe.DialNodeID(fmt.Sprintf("n%d", i), addr, 0)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	return stripe.New(cfg, nodes...), nodes
}

// TestNodeIdentityIsNotItsAddress: placement follows the ID a node was
// dialed under, so the same IDs on other ports place every chunk the
// same way; a node dialed by address alone keeps the address as its ID.
func TestNodeIdentityIsNotItsAddress(t *testing.T) {
	cfg := stripe.Config{ChunkSize: 16 << 10, Replicas: 2}
	body := make([]byte, 20*cfg.ChunkSize)
	placement := func() map[string][]string {
		s, nodes := dialCluster(t, cfg, startOSDaemon(t), startOSDaemon(t), startOSDaemon(t))
		if err := s.Put("ckpt", bytes.NewReader(body), int64(len(body))); err != nil {
			t.Fatal(err)
		}
		held := map[string][]string{}
		for _, n := range nodes {
			names, err := n.List()
			if err != nil {
				t.Fatal(err)
			}
			held[n.ID()] = names
		}
		return held
	}
	if a, b := placement(), placement(); !reflect.DeepEqual(a, b) {
		t.Fatalf("the same node IDs on other ports hold different objects:\n%v\n%v", a, b)
	}

	addr := startOSDaemon(t)
	n, err := stripe.DialNode(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.ID() != addr {
		t.Fatalf("DialNode(%s).ID() = %q, want the address", addr, n.ID())
	}
}

const (
	benchObject = 32 << 20
	benchChunk  = 1 << 20
)

// benchBody is an object of distinct 1 MiB chunks: without the i>>20
// term every 512 KiB would repeat, and a Put would name every chunk the
// same.
func benchBody() []byte { return distinctBody(benchObject) }

func distinctBody(n int) []byte {
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i ^ i>>11 ^ i>>20)
	}
	return body
}

// stamp writes cycle into the head of every chunk of body, so each
// cycle's Put finds none of its chunks on the nodes and uploads them all.
func stamp(body []byte, cycle int) {
	for off := 0; off < len(body); off += benchChunk {
		binary.LittleEndian.PutUint64(body[off:], uint64(cycle))
	}
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

// putGet stripes body over s and restores it into sink.
func putGet(tb testing.TB, s *stripe.Store, body []byte, r *bytes.Reader, sink *sliceSink) {
	r.Reset(body)
	if err := s.Put("ckpt", r, int64(len(body))); err != nil {
		tb.Fatal(err)
	}
	sink.n = 0
	if _, err := s.Get("ckpt", sink); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPutGet3Nodes is one checkpoint and one restore of a 32 MiB
// object over three loopback daemons, two replicas per chunk. Every
// chunk is new to the nodes, so the Put hashes and uploads all of them,
// and sweeps the previous cycle's.
func BenchmarkPutGet3Nodes(b *testing.B) {
	s, _ := dialCluster(b, stripe.Config{ChunkSize: benchChunk, Replicas: 2},
		startOSDaemon(b), startOSDaemon(b), startOSDaemon(b))
	body := benchBody()
	sink := sliceSink{buf: make([]byte, benchObject)}
	var r bytes.Reader
	b.SetBytes(2 * benchObject)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stamp(body, i)
		putGet(b, s, body, &r, &sink)
	}
}

// maxStripeAllocKiBPerMiB is the CI floor on what the striped path —
// coordinator, three client connections, three daemons and their mounts
// — may allocate per MiB of object checkpointed and restored. Fresh
// chunk buffers alone would be 2048 KiB per MiB.
const maxStripeAllocKiBPerMiB = 64

func TestStripeAllocsPerMiB(t *testing.T) {
	s, _ := dialCluster(t, stripe.Config{ChunkSize: benchChunk, Replicas: 2},
		startOSDaemon(t), startOSDaemon(t), startOSDaemon(t))
	body := benchBody()
	sink := sliceSink{buf: make([]byte, benchObject)}
	var r bytes.Reader
	putGet(t, s, body, &r, &sink) // warm-up: fills the free lists
	// The free lists grow to the high-water mark of buffers in flight at
	// once, which depends on scheduling and which a later cycle may still
	// raise by a buffer or two. The floor is about the steady state, so it
	// judges the quietest of three cycles.
	quietest := math.Inf(1)
	for i := 0; i < 3; i++ {
		stamp(body, i+1) // every chunk new to the nodes: the Put uploads all of them
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		putGet(t, s, body, &r, &sink)
		runtime.ReadMemStats(&after)
		if !bytes.Equal(sink.buf, body) {
			t.Fatal("restored bytes differ")
		}
		quietest = min(quietest, float64(after.TotalAlloc-before.TotalAlloc)/1024/(benchObject>>20))
	}
	t.Logf("%.2f KiB allocated per MiB of object", quietest)
	if quietest > maxStripeAllocKiBPerMiB {
		t.Fatalf("%.1f KiB allocated per MiB of object, floor is %d", quietest, maxStripeAllocKiBPerMiB)
	}
}

// TestGetFallsBackOverTheWire: over loopback daemons, where the client
// reads each chunk straight into the coordinator's chunk buffer, a
// primary replica that is longer than its chunk by more than a frame,
// one that is half of it, and one with a byte changed each fail their
// length or fingerprint check, and the restore reads the other replica.
func TestGetFallsBackOverTheWire(t *testing.T) {
	const chunk = 4 * server.DataChunk
	s, nodes := dialCluster(t, stripe.Config{ChunkSize: chunk, Replicas: 2},
		startOSDaemon(t), startOSDaemon(t), startOSDaemon(t))
	body := benchBody()[:5*chunk+1234]
	if err := s.Put("ckpt", bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if _, err := nodes[0].Get(stripe.ManifestName("ckpt"), &enc); err != nil {
		t.Fatal(err)
	}
	m, err := stripe.DecodeManifest(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]stripe.Node{}
	for _, n := range nodes {
		byID[n.ID()] = n
	}
	for idx, bad := range [][]byte{
		append(bytes.Clone(body[:chunk]), bytes.Repeat([]byte{7}, server.DataChunk+100)...),
		body[chunk : chunk+chunk/2],
		append(append(bytes.Clone(body[2*chunk:2*chunk+1000]), ^body[2*chunk+1000]), body[2*chunk+1001:3*chunk]...),
	} {
		primary := byID[m.Chunks[idx].Nodes[0]]
		if err := primary.Put(m.Chunks[idx].Name, bytes.NewReader(bad), int64(len(bad))); err != nil {
			t.Fatal(err)
		}
	}
	sink := sliceSink{buf: make([]byte, len(body))}
	if n, err := s.Get("ckpt", &sink); err != nil || n != int64(len(body)) || !bytes.Equal(sink.buf, body) {
		t.Fatalf("GET over three bad primaries: n=%d err=%v", n, err)
	}
	if st := s.Stats(); st.ChecksumFailed != 3 || st.ReplicaFallbacks != 3 {
		t.Errorf("ChecksumFailed = %d, ReplicaFallbacks = %d, want 3 each", st.ChecksumFailed, st.ReplicaFallbacks)
	}
}

// BenchmarkGet3Nodes is one restore of a 64 MiB object striped in 4 MiB
// chunks over three loopback daemons, two replicas per chunk: the GET
// path alone, for profiling.
func BenchmarkGet3Nodes(b *testing.B) {
	const object = 64 << 20
	s, _ := dialCluster(b, stripe.Config{ChunkSize: stripe.DefaultChunkSize, Replicas: 2},
		startOSDaemon(b), startOSDaemon(b), startOSDaemon(b))
	body := distinctBody(object)
	if err := s.Put("ckpt", bytes.NewReader(body), object); err != nil {
		b.Fatal(err)
	}
	sink := sliceSink{buf: make([]byte, object)}
	b.SetBytes(object)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.n = 0
		if _, err := s.Get("ckpt", &sink); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !bytes.Equal(sink.buf, body) {
		b.Fatal("restored bytes differ")
	}
}
