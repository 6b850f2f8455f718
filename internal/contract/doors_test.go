package contract_test

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"crfs/internal/client"
	"crfs/internal/codec"
	"crfs/internal/core"
	"crfs/internal/memfs"
	"crfs/internal/osfs"
	"crfs/internal/server"
	"crfs/internal/stripe"
	"crfs/internal/vfs"
)

const (
	coreChunk   = 64 << 10 // every core mount's chunk
	stripeChunk = 4 << 10  // stripe-mem's chunk
)

func mount(t *testing.T, back vfs.FS, deflate bool) *core.FS {
	opts := core.Options{ChunkSize: coreChunk, BufferPoolSize: 16 * coreChunk}
	if deflate {
		opts.Codec = codec.Deflate()
	}
	fs, err := core.Mount(back, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// fixed is the backend of a door with no crash sweep: fs, at every restart.
func fixed(fs vfs.FS) func() vfs.FS { return func() vfs.FS { return fs } }

func osDir(t *testing.T) vfs.FS {
	fs, err := osfs.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// temps are whole objects under temp names, as crashed Puts leave them:
// a Replace temp, and the staging temp an older crfsd left. No List may
// show them.
var temps = []string{vfs.TempName(stripe.ManifestName("dir/ghost")), "dir/ghost.crfsd-3.put~"}

func plant(t *testing.T, fs vfs.FS) {
	for _, temp := range temps {
		if err := errors.Join(fs.MkdirAll("dir"), vfs.WriteFile(fs, temp, []byte("ghost"))); err != nil {
			t.Fatal(err)
		}
	}
}

// mountDoor is vfs.Tree over a core mount of back(). Restart unmounts
// and mounts back() again; in a crash sweep back() is the replayed crash
// point. With no back given, it is one memfs, and temps are planted at
// every start.
type mountDoor struct {
	vfs.Objects
	fs             *core.FS
	deflate, plant bool
	back           func() vfs.FS
}

func newMount(t *testing.T, deflate bool, back func() vfs.FS) *mountDoor {
	d := &mountDoor{deflate: deflate, back: back, plant: back == nil}
	if back == nil {
		d.back = fixed(memfs.New())
	}
	d.Restart(t)
	t.Cleanup(func() { d.fs.Unmount() })
	return d
}

func (d *mountDoor) Restart(t *testing.T) {
	if d.fs != nil {
		if err := d.fs.Unmount(); err != nil {
			t.Fatal(err)
		}
	}
	d.fs = mount(t, d.back(), d.deflate)
	d.Objects = vfs.Tree{FS: d.fs}
	if d.plant {
		plant(t, d.fs)
	}
}

// mountNode is a stripe node that is a mount, no socket between.
type mountNode struct {
	*mountDoor
	id string
}

func (n mountNode) ID() string   { return n.id }
func (n mountNode) Close() error { return nil }

// daemon is one crfsd: a server over a core mount of back(), staging
// temps swept as crfsd sweeps them at startup, serving on addr (a fresh
// loopback port when empty).
type daemon struct {
	back func() vfs.FS
	addr string
	fs   *core.FS
	srv  *server.Server
}

func (d *daemon) start(t *testing.T) {
	d.fs = mount(t, d.back(), false)
	d.srv = server.New(d.fs, server.Config{})
	if _, err := d.srv.SweepStaging(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", cmp.Or(d.addr, "127.0.0.1:0"))
	if err != nil {
		d.fs.Unmount()
		t.Fatal(err)
	}
	d.addr = ln.Addr().String()
	go d.srv.Serve(ln)
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	d.fs.Unmount()
}

// daemonDoor is a client of one daemon. Restart stops the daemon, starts
// it again over back() and dials a new client. With no back given, it is
// an osfs directory, and temps are planted at every start.
type daemonDoor struct {
	vfs.Objects
	daemon
	c     *client.Client
	plant bool
}

func newDaemon(t *testing.T, back func() vfs.FS) *daemonDoor {
	d := &daemonDoor{daemon: daemon{back: back}, plant: back == nil}
	if back == nil {
		d.back = fixed(osDir(t))
	}
	d.dial(t)
	t.Cleanup(func() { d.c.Close(); d.stop() })
	return d
}

func (d *daemonDoor) dial(t *testing.T) {
	d.start(t)
	if d.plant {
		plant(t, d.fs)
	}
	c, err := client.Dial(d.addr, client.Config{Redials: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d.c, d.Objects = c, c
}

func (d *daemonDoor) Restart(t *testing.T) {
	d.c.Close()
	d.stop()
	d.addr = ""
	d.dial(t)
}

// stripeDoor is a stripe.Store. Restart is a fresh Store over the same
// nodes, which a scrub must then find nothing lost in.
type stripeDoor struct {
	vfs.Objects
	s     *stripe.Store
	cfg   stripe.Config
	nodes []stripe.Node
}

func (d *stripeDoor) Restart(t *testing.T) {
	d.s = stripe.New(d.cfg, d.nodes...)
	d.Objects = d.s
	scrub(t, d.s)
}

func (*stripeDoor) copiesMayDiverge() {}

func scrub(t *testing.T, s *stripe.Store) {
	if rep, err := s.Scrub(); err != nil || rep.LostChunks != 0 || rep.LostManifests != 0 {
		t.Errorf("scrub: %v (%s)", err, rep)
	}
}

// refusing is a MemNode that can refuse its manifest copies.
type refusing struct {
	*stripe.MemNode
	refuse atomic.Bool
}

type refused struct{ node, name string }

func (e *refused) Error() string { return fmt.Sprintf("node %s refuses %s", e.node, e.name) }

func (n *refusing) Put(name string, r io.Reader, size int64) error {
	if _, _, k := stripe.ParseObjectName(name); k == stripe.KindManifest && n.refuse.Load() {
		return &refused{n.ID(), name}
	}
	return n.MemNode.Put(name, r, size)
}

// stripeMem is a Store over five MemNodes, k = 2, 4 KiB chunks. Its fault
// hook takes a node down, corrupts its chunk replicas or has it refuse
// its manifest copy, then heals the node and scrubs.
type stripeMem struct {
	stripeDoor
	mem []*refusing
}

func newStripeMem(t *testing.T) door {
	d := &stripeMem{stripeDoor: stripeDoor{cfg: stripe.Config{ChunkSize: stripeChunk, Replicas: 2}}}
	for i := 0; i < 5; i++ {
		n := &refusing{MemNode: stripe.NewMemNode(fmt.Sprintf("mem-%02d", i))}
		d.mem, d.nodes = append(d.mem, n), append(d.nodes, n)
	}
	d.Restart(t)
	for _, temp := range temps {
		if err := d.mem[0].Put(temp, strings.NewReader("ghost"), 5); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func (d *stripeMem) Fault(r *run) {
	n := d.mem[r.rng.Intn(len(d.mem))]
	name, v := names[r.rng.Intn(len(names))], r.next(stripeChunk*r.rng.Intn(12)+r.rng.Intn(stripeChunk))
	switch r.rng.Intn(3) {
	case 0: // reads go round a node that is down; a Put, which needs every node, fails
		n.SetDown(true)
		r.m.down = vfs.ErrClosed
		r.checkAll(false)
		if err := r.put(name, v); err == nil {
			r.t.Errorf("put %s with %s down succeeded", name, n.ID())
		}
		r.checkAll(false)
		n.SetDown(false)
		r.m.down = nil
	case 1: // reads go round every chunk replica of a node, silently corrupt
		for _, o := range n.Objects() {
			if _, _, k := stripe.ParseObjectName(o); k == stripe.KindChunk {
				n.Corrupt(o)
			}
		}
		r.checkAll(false)
	case 2: // a refused manifest copy fails the Put, naming the node; retried, it commits
		n.refuse.Store(true)
		err := r.put(name, v)
		n.refuse.Store(false)
		var e *refused
		if !errors.As(err, &e) || e.node != n.ID() || e.name != stripe.ManifestName(name) {
			r.t.Errorf("put %s with %s refusing its manifest copy: %v", name, n.ID(), err)
		}
		r.get(name, false)
		if err := r.put(name, v); err != nil {
			r.t.Errorf("put %s retried: %v", name, err)
		}
	}
	scrub(r.t, d.s)
	r.checkAll(true)
}

// stripeDaemons is a Store (k = 2, 64 KiB chunks) over three crfsd
// daemons on osfs. Its fault hook kills one daemon; reads go round it and
// a Put fails until it restarts on its address, and a scrub follows.
type stripeDaemons struct {
	stripeDoor
	daemons []*daemon
}

func newStripeDaemons(t *testing.T) door {
	d := &stripeDaemons{stripeDoor: stripeDoor{cfg: stripe.Config{ChunkSize: coreChunk, Replicas: 2}}}
	for i := 0; i < 3; i++ {
		dm := &daemon{back: fixed(osDir(t))}
		dm.start(t)
		t.Cleanup(dm.stop)
		n, err := stripe.DialNodeID(fmt.Sprintf("n%d", i), dm.addr, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		d.daemons, d.nodes = append(d.daemons, dm), append(d.nodes, n)
	}
	plant(t, d.daemons[0].fs)
	d.Restart(t)
	return d
}

func (d *stripeDaemons) Fault(r *run) {
	dm := d.daemons[r.rng.Intn(len(d.daemons))]
	dm.stop()
	r.m.down = syscall.ECONNREFUSED
	r.checkAll(false)
	if name := names[r.rng.Intn(len(names))]; r.put(name, r.next(3*coreChunk)) == nil {
		r.t.Errorf("put %s with a daemon down succeeded", name)
	}
	dm.start(r.t)
	r.m.down = nil
	scrub(r.t, d.s)
	r.checkAll(true)
}

// newStripeMounts is a Store over three mounts.
func newStripeMounts(t *testing.T) door {
	d := &stripeDoor{cfg: stripe.Config{ChunkSize: coreChunk, Replicas: 2}}
	for i := 0; i < 3; i++ {
		d.nodes = append(d.nodes, mountNode{newMount(t, false, nil), fmt.Sprintf("m%d", i)})
	}
	d.Restart(t)
	return d
}

// TestKnownGapDivergentManifestCopies asserts today's behaviour of the
// ROADMAP defect "Divergent manifest copies": a Store over two of three
// nodes overwrites a name while the third node, first in ID order,
// keeps the old manifest copy; the old version's chunks on the other two
// are swept. A Store over all three reads that stale copy first and
// fails with ErrChunkLost. Once Get takes the newest copy this row fails:
// it then belongs in the contract as a stripe-mem fault.
func TestKnownGapDivergentManifestCopies(t *testing.T) {
	cfg := stripe.Config{ChunkSize: stripeChunk, Replicas: 2}
	var nodes []stripe.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, stripe.NewMemNode(fmt.Sprintf("n%d", i)))
	}
	var r run
	for _, s := range []*stripe.Store{stripe.New(cfg, nodes...), stripe.New(cfg, nodes[1:]...)} {
		v := r.next(10 * stripeChunk)
		if err := s.Put("ckpt", bytes.NewReader(v), int64(len(v))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stripe.New(cfg, nodes...).Get("ckpt", io.Discard); !errors.Is(err, stripe.ErrChunkLost) {
		t.Fatalf("get over all three nodes: %v; want today's stripe.ErrChunkLost (if it read the overwrite, the defect is fixed)", err)
	}
}
