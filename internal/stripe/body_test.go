package stripe

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// piecesBody is a body that hands its bytes over through WriteTo, piece
// bytes at a time, each from one scratch buffer it overwrites with 0xDB
// as soon as Write returns — so a destination that kept a piece past its
// Write ships wrong bytes. With stop > 0 it stops after stop bytes and
// returns err — a nil err makes it run short. Read fails: Put is meant
// to take this body through WriteTo.
type piecesBody struct {
	b     []byte
	piece int
	stop  int
	err   error
}

var errReadCalled = errors.New("piecesBody: Read called; the body is handed over by WriteTo")

func (r *piecesBody) Read([]byte) (int, error) { return 0, errReadCalled }

func (r *piecesBody) WriteTo(w io.Writer) (int64, error) {
	b := r.b
	if r.stop > 0 {
		b = b[:r.stop]
	}
	scratch := make([]byte, r.piece)
	var n int64
	for len(b) > 0 {
		piece := scratch[:copy(scratch, b)]
		m, err := w.Write(piece)
		for i := range piece {
			piece[i] = 0xDB
		}
		n += int64(m)
		b = b[m:]
		if err != nil {
			return n, err
		}
	}
	return n, r.err
}

// plainBody hides every method of its reader but Read, so Put takes it
// through ReadFrom.
type plainBody struct{ r io.Reader }

func (r plainBody) Read(p []byte) (int, error) { return r.r.Read(p) }

// bodyShapes are the ways a Put can be handed the same bytes.
func bodyShapes(chunk int) []struct {
	name string
	body func(b []byte) io.Reader
} {
	return []struct {
		name string
		body func(b []byte) io.Reader
	}{
		{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"pieces-1.5-chunks", func(b []byte) io.Reader { return &piecesBody{b: b, piece: chunk * 3 / 2} }},
		{"pieces-1KiB", func(b []byte) io.Reader { return &piecesBody{b: b, piece: 1 << 10} }},
		{"plain-reader", func(b []byte) io.Reader { return plainBody{bytes.NewReader(b)} }},
	}
}

// mustHoldNoBuffers fails the test unless every free-list buffer s gave
// out has come back.
func mustHoldNoBuffers(t *testing.T, s *Store) {
	t.Helper()
	if n := s.held.Load(); n != 0 {
		t.Errorf("%d chunk buffers not given back", n)
	}
}

// mustHaveNoManifest fails the test if any node holds a manifest copy of
// object.
func mustHaveNoManifest(t *testing.T, nodes []*MemNode, object string) {
	t.Helper()
	for _, n := range nodes {
		if contains(n.Objects(), ManifestName(object)) {
			t.Errorf("node %s holds a manifest of the failed Put", n.ID())
		}
	}
}

// copyNode is a MemNode that takes a body the way the client does, with
// io.Copy, so a body that can hand its bytes over does.
type copyNode struct{ *MemNode }

func (n copyNode) Put(name string, r io.Reader, size int64) error {
	var b bytes.Buffer
	if _, err := io.Copy(&b, r); err != nil {
		return err
	}
	return n.MemNode.Put(name, &b, size)
}

// copyCluster is memCluster over copyNodes.
func copyCluster(count int, cfg Config) *Store {
	nodes := make([]Node, count)
	for i := range nodes {
		nodes[i] = copyNode{NewMemNode(fmt.Sprintf("mem-%02d", i))}
	}
	return New(cfg, nodes...)
}

// TestPutBodyShapes: a body handed over whole, in pieces straddling
// chunk boundaries, in 1 KiB pieces, or through a plain reader commits
// the same manifest as the plain reader does — offsets, lengths, CRCs,
// replica sets — and reads back byte-identically, whether the nodes read
// their bodies or have them handed over. A body held in memory whole
// takes no free-list buffer.
func TestPutBodyShapes(t *testing.T) {
	noLeaks(t)
	const chunk = 8 << 10
	cfg := Config{ChunkSize: chunk, Replicas: 2}
	clusters := []struct {
		name string
		make func() *Store
	}{
		{"reading-nodes", func() *Store { s, _ := memCluster(3, cfg); return s }},
		{"copying-nodes", func() *Store { return copyCluster(3, cfg) }},
	}
	for _, size := range []int{0, 3 * chunk, 10*chunk + 123} {
		body := payload(size, size)
		ref, _ := memCluster(3, cfg)
		if err := ref.Put("ckpt", plainBody{bytes.NewReader(body)}, int64(size)); err != nil {
			t.Fatal(err)
		}
		want, err := ref.readManifest("ckpt")
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range clusters {
			for _, shape := range bodyShapes(chunk) {
				t.Run(fmt.Sprintf("%s/%s/%d", cl.name, shape.name, size), func(t *testing.T) {
					s := cl.make()
					if err := s.Put("ckpt", shape.body(body), int64(size)); err != nil {
						t.Fatal(err)
					}
					mustHoldNoBuffers(t, s)
					if shape.name == "bytes.Reader" && len(s.bufs) != 0 {
						t.Errorf("a body in memory took %d free-list buffers", len(s.bufs))
					}
					got, err := s.readManifest("ckpt")
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("manifest differs from the plain reader's:\n%+v\n%+v", got, want)
					}
					mustGet(t, s, "ckpt", body)
				})
			}
		}
	}
}

// halfNode is a MemNode that stores only the first half of each chunk
// it is given and reports success: a faulty node.
type halfNode struct{ *MemNode }

func (n halfNode) Put(name string, r io.Reader, size int64) error {
	if _, _, kind := ParseObjectName(name); kind == KindChunk {
		return n.MemNode.Put(name, io.LimitReader(r, size/2), size/2)
	}
	return n.MemNode.Put(name, r, size)
}

// TestFingerprintIsOfTheChunk: a chunk's fingerprint is taken as its
// first replica push hands the bytes over, yet it covers the whole chunk
// even when that node took half of it — so the restore rejects the short
// replica and reads the good one.
func TestFingerprintIsOfTheChunk(t *testing.T) {
	const chunk = 8 << 10
	cfg := Config{ChunkSize: chunk, Replicas: 2}
	_, nodes := memCluster(3, cfg)
	s := New(cfg, halfNode{nodes[0]}, nodes[1], nodes[2])
	body := payload(53, 20*chunk)
	mustPut(t, s, "ckpt", body)
	m, err := s.readManifest("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	primaries := 0
	for _, c := range m.Chunks {
		if c.Nodes[0] == nodes[0].ID() {
			primaries++
		}
	}
	if primaries == 0 {
		t.Fatal("the half-storing node is no chunk's primary")
	}
	mustGet(t, s, "ckpt", body)
}

// TestPutBodySourceFails: a body that fails or runs short mid-chunk,
// handed over in pieces or read, fails the Put with its error; no node
// holds a manifest, every free-list buffer is back, and no goroutine is
// left.
func TestPutBodySourceFails(t *testing.T) {
	noLeaks(t)
	const chunk = 8 << 10
	errSource := errors.New("body source failed")
	body := payload(41, 12*chunk)
	stop := 5*chunk + chunk/2
	for _, tc := range []struct {
		name string
		body io.Reader
		want error
	}{
		{"pieces-1.5-chunks/error", &piecesBody{b: body, piece: chunk * 3 / 2, stop: stop, err: errSource}, errSource},
		{"pieces-1.5-chunks/short", &piecesBody{b: body, piece: chunk * 3 / 2, stop: stop}, io.ErrUnexpectedEOF},
		{"pieces-1KiB/error", &piecesBody{b: body, piece: 1 << 10, stop: stop, err: errSource}, errSource},
		{"pieces-1KiB/short", &piecesBody{b: body, piece: 1 << 10, stop: stop}, io.ErrUnexpectedEOF},
		{"plain-reader/short", plainBody{bytes.NewReader(body[:stop])}, io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, nodes := memCluster(3, Config{ChunkSize: chunk, Replicas: 2})
			err := s.Put("ckpt", tc.body, int64(len(body)))
			if !errors.Is(err, tc.want) {
				t.Fatalf("Put of a failing body: %v, want %v", err, tc.want)
			}
			mustHoldNoBuffers(t, s)
			mustHaveNoManifest(t, nodes, "ckpt")
			checkStoredChunks(t, nodes, "ckpt", body, chunk)
		})
	}
}

// gateNode is a MemNode whose chunk Puts announce themselves on entered
// (when set) and then wait in hold. It records the most chunk Puts it
// ever had inside at once.
type gateNode struct {
	*MemNode
	entered      chan string
	hold         func()
	inside, most atomic.Int32
}

func (n *gateNode) Put(name string, r io.Reader, size int64) error {
	if _, _, kind := ParseObjectName(name); kind == KindChunk {
		in := n.inside.Add(1)
		defer n.inside.Add(-1)
		for m := n.most.Load(); in > m && !n.most.CompareAndSwap(m, in); m = n.most.Load() {
		}
		if n.entered != nil {
			n.entered <- n.ID()
		}
		n.hold()
	}
	return n.MemNode.Put(name, r, size)
}

// gateCluster is a store over count gateNodes sharing hold and entered.
func gateCluster(cfg Config, count int, hold func(), entered chan string) (*Store, []*gateNode) {
	gates := make([]*gateNode, count)
	nodes := make([]Node, count)
	for i := range gates {
		gates[i] = &gateNode{MemNode: NewMemNode(fmt.Sprintf("mem-%02d", i)), hold: hold, entered: entered}
		nodes[i] = gates[i]
	}
	return New(cfg, nodes...), gates
}

// TestReplicasPushedTogether: both replicas of a chunk are inside their
// node's Put at once before either returns, whether the chunk came from
// the caller's bytes or a free-list buffer; and under a long body no
// node ever has more than perNodeInFlight chunk Puts at a time.
func TestReplicasPushedTogether(t *testing.T) {
	noLeaks(t)
	const chunk = 8 << 10
	cfg := Config{ChunkSize: chunk, Replicas: 2}
	body := payload(43, chunk)
	for _, shape := range bodyShapes(chunk) {
		t.Run("together/"+shape.name, func(t *testing.T) {
			release := make(chan struct{})
			entered := make(chan string, 2)
			s, _ := gateCluster(cfg, 3, func() { <-release }, entered)
			done := make(chan error, 1)
			go func() { done <- s.Put("ckpt", shape.body(body), chunk) }()
			timeout := time.After(10 * time.Second)
			for i := 0; i < 2; i++ {
				select {
				case <-entered:
				case err := <-done:
					t.Fatalf("Put returned %v before both replicas were pushed", err)
				case <-timeout:
					close(release)
					<-done
					t.Fatalf("%d of 2 replicas inside Put at once", i)
				}
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			mustHoldNoBuffers(t, s)
			mustGet(t, s, "ckpt", body)
		})
	}

	t.Run("per-node-cap", func(t *testing.T) {
		s, gates := gateCluster(cfg, 3, func() { time.Sleep(time.Millisecond) }, nil)
		long := payload(47, 60*chunk+5)
		for _, shape := range bodyShapes(chunk) {
			if err := s.Put("ckpt", shape.body(long), int64(len(long))); err != nil {
				t.Fatal(err)
			}
			mustGet(t, s, "ckpt", long)
		}
		for _, g := range gates {
			if most := g.most.Load(); most > perNodeInFlight {
				t.Errorf("node %s had %d chunk Puts at once, cap is %d", g.ID(), most, perNodeInFlight)
			}
		}
	})
}
