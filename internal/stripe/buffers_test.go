package stripe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crfs/internal/codec"
)

// TestMain runs every test of the package against a poisoning chunk free
// list: a coordinator stage that touched a chunk buffer after giving it
// up would push, verify or deliver 0xDB bytes, which the content checks
// of the package then catch.
func TestMain(m *testing.M) {
	poisonChunkBufs.Store(true)
	os.Exit(m.Run())
}

// noLeaks fails the test if more goroutines outlive it than it began with.
func noLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines alive, %d before the test:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// faultNode is a MemNode whose Put fails for the names refuse matches,
// after consuming half the body like a daemon dying mid-transfer.
type faultNode struct {
	*MemNode
	refuse atomic.Pointer[func(name string) bool]
}

// nodeFault is the error a faultNode injects: which node refused what.
type nodeFault struct{ node, name string }

func (e *nodeFault) Error() string {
	return fmt.Sprintf("stripe: node %s: PUT %s: injected fault", e.node, e.name)
}

func (n *faultNode) Put(name string, r io.Reader, size int64) error {
	if refuse := n.refuse.Load(); refuse != nil && (*refuse)(name) {
		io.CopyN(io.Discard, r, size/2)
		return &nodeFault{node: n.ID(), name: name}
	}
	return n.MemNode.Put(name, r, size)
}

func (n *faultNode) refusing(match func(name string) bool) {
	if match == nil {
		n.refuse.Store(nil)
		return
	}
	n.refuse.Store(&match)
}

// storeOver is a store over nodes with those at the wrap indexes behind
// fault injectors, returned in wrap's order.
func storeOver(cfg Config, nodes []*MemNode, wrap ...int) (*Store, []*faultNode) {
	ns := make([]Node, len(nodes))
	for i, n := range nodes {
		ns[i] = n
	}
	fns := make([]*faultNode, len(wrap))
	for j, i := range wrap {
		fns[j] = &faultNode{MemNode: nodes[i]}
		ns[i] = fns[j]
	}
	return New(cfg, ns...), fns
}

// faultCluster is memCluster with node 1 wrapped for Put faults.
func faultCluster(cfg Config) (*Store, []*MemNode, *faultNode) {
	_, nodes := memCluster(3, cfg)
	s, fns := storeOver(cfg, nodes, 1)
	return s, nodes, fns[0]
}

// checkStoredChunks demands that every chunk replica any node holds for
// object is the matching slice of body.
func checkStoredChunks(t *testing.T, nodes []*MemNode, object string, body []byte, chunkSize int) {
	t.Helper()
	for _, n := range nodes {
		n.mu.Lock()
		for name, data := range n.objects {
			obj, idx, kind := ParseObjectName(name)
			if kind != KindChunk || obj != object {
				continue
			}
			lo := idx * chunkSize
			if hi := min(lo+chunkSize, len(body)); !bytes.Equal(data, body[lo:hi]) {
				t.Errorf("node %s holds wrong bytes for %s", n.ID(), name)
			}
		}
		n.mu.Unlock()
	}
}

// TestOwnedChunkBuffersFailedReplica: one replica push fails while the
// other chunks of the window are mid-flight, for every shape of body.
// The Put reports the failed chunk and node, no manifest commits,
// everything that did reach a node is the right bytes, every buffer is
// back, and the buffers the failure returned serve the next Put and Get.
func TestOwnedChunkBuffersFailedReplica(t *testing.T) {
	noLeaks(t)
	const chunk = 8 << 10
	body := payload(3, 40*chunk+123)
	for _, shape := range bodyShapes(chunk) {
		t.Run(shape.name, func(t *testing.T) {
			s, nodes, fn := faultCluster(Config{ChunkSize: chunk, Replicas: 2})
			fn.refusing(func(name string) bool {
				_, idx, kind := ParseObjectName(name)
				return kind == KindChunk && idx >= 5
			})
			err := s.Put("ckpt", shape.body(body), int64(len(body)))
			var nf *nodeFault
			if !errors.As(err, &nf) || nf.node != fn.ID() {
				t.Fatalf("PUT with a failing replica: %v", err)
			}
			mustHoldNoBuffers(t, s)
			mustHaveNoManifest(t, nodes, "ckpt")
			checkStoredChunks(t, nodes, "ckpt", body, chunk)
			if _, err := s.Get("ckpt", io.Discard); err == nil {
				t.Fatal("GET of an uncommitted object succeeded")
			}

			fn.refusing(nil)
			if err := s.Put("ckpt", shape.body(body), int64(len(body))); err != nil {
				t.Fatal(err)
			}
			checkStoredChunks(t, nodes, "ckpt", body, chunk)
			mustGet(t, s, "ckpt", body)
		})
	}
}

// TestOwnedChunkBuffersBadReplicas: replicas that are corrupt, too long
// or too short fail their fingerprint and the fetch moves on with the
// same buffer; the restore is byte-identical. A chunk with no clean
// replica fails the restore with the typed errors, and the sink holds
// only a prefix of the object.
func TestOwnedChunkBuffersBadReplicas(t *testing.T) {
	noLeaks(t)
	const chunk = 8 << 10
	s, nodes := memCluster(3, Config{ChunkSize: chunk, Replicas: 2})
	body := payload(5, 30*chunk+77)
	mustPut(t, s, "ckpt", body)

	// Damage each chunk's primary a different way, by index.
	m, err := s.readManifest("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*MemNode{}
	for _, n := range nodes {
		byID[n.ID()] = n
	}
	for idx, c := range m.Chunks {
		n, name := byID[c.Nodes[0]], ChunkName("ckpt", idx)
		switch idx % 3 {
		case 0:
			n.Corrupt(name)
		case 1:
			n.mu.Lock()
			n.objects[name] = append(n.objects[name], "overlong tail"...)
			n.mu.Unlock()
		case 2:
			n.mu.Lock()
			n.objects[name] = n.objects[name][:len(n.objects[name])/2]
			n.mu.Unlock()
		}
	}
	mustGet(t, s, "ckpt", body)
	st := s.Stats()
	if st.ChecksumFailed != int64(len(m.Chunks)) || st.ReplicaFallbacks != int64(len(m.Chunks)) {
		t.Errorf("ChecksumFailed = %d, ReplicaFallbacks = %d, want %d each", st.ChecksumFailed, st.ReplicaFallbacks, len(m.Chunks))
	}

	// Now the second replica of one chunk goes bad too.
	const lost = 17
	byID[m.Chunks[lost].Nodes[1]].Corrupt(ChunkName("ckpt", lost))
	var sink bytes.Buffer
	_, err = s.Get("ckpt", &sink)
	if !errors.Is(err, ErrChunkLost) || !errors.Is(err, codec.ErrChecksum) {
		t.Fatalf("GET with a lost chunk: %v", err)
	}
	if sink.Len() != lost*chunk || !bytes.HasPrefix(body, sink.Bytes()) {
		t.Fatalf("sink holds %d bytes, want the %d-byte prefix before the lost chunk", sink.Len(), lost*chunk)
	}
}

// TestOwnedChunkBuffersSinkFails: the restore's sink fails partway; the
// chunks fetched ahead of it are given back, and the next restore gets
// the right bytes out of the recycled buffers.
func TestOwnedChunkBuffersSinkFails(t *testing.T) {
	noLeaks(t)
	const chunk = 8 << 10
	s, _ := memCluster(3, Config{ChunkSize: chunk, Replicas: 2})
	body := payload(9, 50*chunk)
	mustPut(t, s, "ckpt", body)
	errFull := errors.New("sink full")
	var got bytes.Buffer
	n, err := s.Get("ckpt", writerFunc(func(p []byte) (int, error) {
		if got.Len() >= 3*chunk {
			return 0, errFull
		}
		return got.Write(p)
	}))
	if !errors.Is(err, errFull) || n != 3*chunk || !bytes.HasPrefix(body, got.Bytes()) {
		t.Fatalf("GET into a failing sink: n=%d err=%v", n, err)
	}
	mustGet(t, s, "ckpt", body)
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestManifestCopiesAllAttempted: manifest copies go out in parallel, yet
// every node is attempted and the error reported is that of the first
// failing node in ID order, whichever failed first on the clock.
func TestManifestCopiesAllAttempted(t *testing.T) {
	noLeaks(t)
	cfg := Config{ChunkSize: 4 << 10, Replicas: 2}
	_, nodes := memCluster(4, cfg)
	s, fns := storeOver(cfg, nodes, 3, 1)
	for _, fn := range fns {
		fn.refusing(func(name string) bool {
			_, _, kind := ParseObjectName(name)
			return kind == KindManifest
		})
	}
	body := payload(13, 9<<10)
	err := s.Put("ckpt", bytes.NewReader(body), int64(len(body)))
	var nf *nodeFault
	if !errors.As(err, &nf) || nf.node != nodes[1].ID() || nf.name != ManifestName("ckpt") {
		t.Fatalf("PUT with two nodes refusing their manifest copy: %v", err)
	}
	for _, i := range []int{0, 2} {
		if objs := nodes[i].Objects(); !contains(objs, ManifestName("ckpt")) {
			t.Errorf("node %s was not given its manifest copy: holds %v", nodes[i].ID(), objs)
		}
	}
}
