package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	crfs "crfs"
	"crfs/internal/client"
	"crfs/internal/osfs"
	"crfs/internal/server"
	"crfs/internal/stripe"
	"crfs/internal/vfs"
)

const (
	pageSize    = 4096
	stampStride = 1 << 20
	chunkSize   = crfs.DefaultChunkSize
	rotation    = 3 // names each stream rotates over, overwriting in place
	loaders     = 2 // closed-loop load goroutines / connections
)

// mountOptions are the shipped defaults (16 MiB pool, 4 MiB chunks, 4 IO
// threads) plus the read-ahead depth crfsd and crfscp mount with. No
// SyncOnClose: like the paper, checkpoint time excludes page-cache flush.
func mountOptions(c crfs.Codec) crfs.Options { return crfs.Options{ReadAhead: 8, Codec: c} }

// fillPayload makes a checkpoint image of entropy 0.5: even 4 KiB pages
// are seeded random bytes, odd pages repetitive text.
func fillPayload(p []byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for off, page := 0, 0; off < len(p); off, page = off+pageSize, page+1 {
		dst := p[off:min(off+pageSize, len(p))]
		if page%2 == 0 {
			rng.Read(dst)
			continue
		}
		line := fmt.Sprintf("vma %08d: registers heap stack signal state\n", page)
		for i := 0; i < len(dst); i += copy(dst[i:], line) {
		}
	}
}

// stamp writes gen at every stampStride of img, so a restore that
// returns a previous generation's bytes cannot pass for the current one.
func stamp(img []byte, gen int) {
	for off := 0; off+8 <= len(img); off += stampStride {
		binary.LittleEndian.PutUint64(img[off:], uint64(gen))
	}
}

// sameImage reports whether got is want as stamped for generation gen.
func sameImage(got, want []byte, gen int) bool {
	if len(got) != len(want) {
		return false
	}
	for off := 0; off < len(want); off += stampStride {
		end := min(off+stampStride, len(want))
		if off+8 <= len(want) {
			if binary.LittleEndian.Uint64(got[off:]) != uint64(gen) || !bytes.Equal(got[off+8:end], want[off+8:end]) {
				return false
			}
		} else if !bytes.Equal(got[off:end], want[off:end]) {
			return false
		}
	}
	return true
}

func fixedStream(total, size int64) []int64 {
	sizes := make([]int64, total/size)
	for i := range sizes {
		sizes[i] = size
	}
	return sizes
}

// acct counts operations: one per image checkpointed or restored, one
// per PUT or GET. An operation fails when it errors or restores wrong
// bytes.
type acct struct {
	attempted, failed atomic.Int64
	firstErr          atomic.Pointer[error]
}

func (a *acct) op(err error) {
	a.attempted.Add(1)
	if err != nil {
		a.failed.Add(1)
		a.firstErr.CompareAndSwap(nil, &err)
	}
}

// load is one workload instantiated over a backend directory. The
// runner calls prepare, cycle, verify once per generation; only cycle is
// timed and CPU-accounted.
type load interface {
	prepare(gen int)
	// cycle checkpoints generation gen and restores it, returning the
	// wall time of each.
	cycle(gen int) (ckpt, restore time.Duration)
	verify(gen int)
	base() *loadBase
	rungs() rungInput
	close() error
}

// loadBase is what the runner reads from every load.
type loadBase struct {
	acct
	// userBytes is what one cycle checkpoints, and then restores; the
	// store holds rotation times as much in steady state.
	userBytes int64
	mounts    []*crfs.FS
	tr        *tracer // nil in the untraced pass
	fsc       fsCounts
	wire      wireCounts
}

// backend opens dir as the osfs backend of a mount, wrapped for timing
// in the traced pass.
func (b *loadBase) backend(dir string) (vfs.FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	back, err := osfs.New(dir)
	if err != nil {
		return nil, err
	}
	if b.tr == nil {
		return back, nil
	}
	return &tracedFS{FS: back, tr: b.tr, c: &b.fsc}, nil
}

// phase runs fn as one sequential step of a cycle and returns its wall
// time. In the traced pass it is a span under the current scope, and the
// scope for everything fn causes.
func (b *loadBase) phase(name string, fn func()) time.Duration {
	t0 := time.Now()
	if b.tr == nil {
		fn()
		return time.Since(t0)
	}
	outer := b.tr.scope.Load()
	id := b.tr.begin(name, outer)
	b.tr.scope.Store(id)
	fn()
	b.tr.scope.Store(outer)
	b.tr.end(id)
	return time.Since(t0)
}

// call is phase for steps that run beside each other: the span hangs
// under the current scope and leaves it alone.
func (b *loadBase) call(name string, fn func()) time.Duration {
	t0 := time.Now()
	if b.tr == nil {
		fn()
		return time.Since(t0)
	}
	id := b.tr.begin(name, b.tr.scope.Load())
	fn()
	b.tr.end(id)
	return time.Since(t0)
}

// ---- ckpt-*: writers streaming images through one mount ----

// callProbe times one rank's app-facing calls in the traced pass.
type callProbe struct {
	tr          *tracer
	write, read hist
	closeNs     int64
}

type imageLoad struct {
	loadBase
	fs     *crfs.FS
	images [][]byte  // per rank, what is checkpointed
	got    [][]byte  // per rank, where it is restored
	sizes  [][]int64 // per rank, the write (and read-back) size stream
	probes []*callProbe
}

// streamKind makes a rank's write sizes; they sum to image.
type streamKind func(image int64, seed int64) []int64

func newImageLoad(dir string, seed int64, tr *tracer, image int64, kind streamKind, c crfs.Codec) (*imageLoad, error) {
	l := &imageLoad{}
	l.tr = tr
	back, err := l.backend(filepath.Join(dir, "mnt"))
	if err != nil {
		return nil, err
	}
	if l.fs, err = crfs.Mount(back, mountOptions(c)); err != nil {
		return nil, err
	}
	l.mounts = []*crfs.FS{l.fs}
	for rank := 0; rank < loaders; rank++ {
		img := make([]byte, image)
		fillPayload(img, seed*1000+int64(rank))
		l.sizes = append(l.sizes, kind(image, seed+int64(rank)))
		l.images = append(l.images, img)
		l.got = append(l.got, make([]byte, image))
		l.probes = append(l.probes, &callProbe{tr: tr})
	}
	l.userBytes = loaders * image
	return l, nil
}

func imageName(rank, gen int) string { return fmt.Sprintf("rank%d.%d.img", rank, gen%rotation) }

func (l *imageLoad) base() *loadBase { return &l.loadBase }

func (l *imageLoad) prepare(gen int) {
	for _, img := range l.images {
		stamp(img, gen)
	}
}

func (l *imageLoad) probe(rank int) *callProbe {
	if l.tr == nil || !l.tr.on.Load() {
		return nil
	}
	return l.probes[rank]
}

func (l *imageLoad) cycle(gen int) (ckpt, restore time.Duration) {
	ckpt = l.phase("ckpt", func() {
		eachRank(func(rank int) {
			l.op(writeImage(l.fs, imageName(rank, gen), l.images[rank], l.sizes[rank], l.probe(rank)))
		})
	})
	restore = l.phase("restore", func() {
		eachRank(func(rank int) {
			l.op(readImage(l.fs, imageName(rank, gen), l.got[rank], l.sizes[rank], l.probe(rank)))
		})
	})
	return ckpt, restore
}

func (l *imageLoad) verify(gen int) {
	for rank := range l.images {
		if !sameImage(l.got[rank], l.images[rank], gen) {
			l.failed.Add(1)
		}
	}
}

func (l *imageLoad) close() error { return l.fs.Unmount() }

// eachRank runs fn once per load goroutine and waits for all of them.
func eachRank(fn func(rank int)) {
	var wg sync.WaitGroup
	for rank := 0; rank < loaders; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(rank)
	}
	wg.Wait()
}

// writeImage streams img to name in sizes-long WriteAt calls and closes
// it. p is nil in the untraced pass and wherever the stream is a ladder
// rung.
func writeImage(fsys vfs.FS, name string, img []byte, sizes []int64, p *callProbe) error {
	f, err := fsys.Open(name, vfs.WriteOnly|vfs.Create|vfs.Trunc)
	if err != nil {
		return err
	}
	var off int64
	var id int32
	if p != nil {
		id = p.tr.begin("core.write", p.tr.scope.Load())
	}
	for _, n := range sizes {
		if p == nil {
			_, err = f.WriteAt(img[off:off+n], off)
		} else {
			t0 := time.Now()
			_, err = f.WriteAt(img[off:off+n], off)
			p.write.observe(time.Since(t0))
		}
		if err != nil {
			f.Close()
			return err
		}
		off += n
	}
	if p == nil {
		return f.Close()
	}
	p.tr.end(id)
	id = p.tr.begin("core.close", p.tr.scope.Load())
	err = f.Close()
	p.closeNs += int64(p.tr.end(id))
	return err
}

// readImage reads name back into got with the same size stream.
func readImage(fsys vfs.FS, name string, got []byte, sizes []int64, p *callProbe) error {
	f, err := fsys.Open(name, vfs.ReadOnly)
	if err != nil {
		return err
	}
	defer f.Close()
	var off int64
	if p != nil {
		defer p.tr.end(p.tr.begin("core.read", p.tr.scope.Load()))
	}
	for _, n := range sizes {
		var rn int
		if p == nil {
			rn, err = f.ReadAt(got[off:off+n], off)
		} else {
			t0 := time.Now()
			rn, err = f.ReadAt(got[off:off+n], off)
			p.read.observe(time.Since(t0))
		}
		if int64(rn) != n {
			return fmt.Errorf("read %s at %d: %d of %d bytes: %w", name, off, rn, n, err)
		}
		off += n
	}
	return nil
}

// ---- daemons ----

// daemon is one in-process crfsd: a mount, a server, a loopback listener.
type daemon struct {
	fs     *crfs.FS
	srv    *server.Server
	addr   string
	served chan error
}

// startDaemon serves a default mount over back on loopback TCP. With a
// tracer, wire counts the daemon's socket reads and writes.
func startDaemon(back vfs.FS, tr *tracer, wire *wireCounts) (*daemon, error) {
	fs, err := crfs.Mount(back, mountOptions(nil))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fs.Unmount()
		return nil, err
	}
	d := &daemon{fs: fs, srv: server.New(fs, server.Config{}), addr: ln.Addr().String(), served: make(chan error, 1)}
	if tr != nil {
		ln = countingListener{Listener: ln, tr: tr, c: wire}
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the server, waits for Serve to return, and unmounts.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.fs.Unmount())
}

// sliceWriter restores into a preallocated buffer.
type sliceWriter struct {
	buf []byte
	n   int
}

func (w *sliceWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.buf) {
		return 0, io.ErrShortBuffer
	}
	w.n += copy(w.buf[w.n:], p)
	return len(p), nil
}

// ---- daemon-mixed: one daemon, a PUT stream beside a GET stream ----

type daemonLoad struct {
	loadBase
	seed     int64
	d        *daemon
	put, get *client.Client
	obj, got []byte
	body     bytes.Reader
	sink     sliceWriter
}

func objectName(gen int) string { return fmt.Sprintf("ckpt.%d", (gen%rotation+rotation)%rotation) }

func newDaemonLoad(dir string, seed int64, tr *tracer, object int64) (*daemonLoad, error) {
	l := &daemonLoad{seed: seed, obj: make([]byte, object), got: make([]byte, object)}
	l.tr = tr
	l.userBytes = object
	fillPayload(l.obj, seed*1000)
	back, err := l.backend(filepath.Join(dir, "d0"))
	if err != nil {
		return nil, err
	}
	if l.d, err = startDaemon(back, tr, &l.wire); err != nil {
		return nil, err
	}
	l.mounts = []*crfs.FS{l.d.fs}
	if l.put, err = client.Dial(l.d.addr, client.Config{}); err == nil {
		l.get, err = client.Dial(l.d.addr, client.Config{})
	}
	if err == nil {
		// The first cycle's GET needs a committed predecessor.
		stamp(l.obj, -1)
		err = l.put.Put(objectName(-1), bytes.NewReader(l.obj), object)
	}
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *daemonLoad) base() *loadBase { return &l.loadBase }

func (l *daemonLoad) prepare(gen int) { stamp(l.obj, gen) }

// cycle PUTs generation gen on one connection while the other GETs
// generation gen-1, committed by the previous cycle under another name.
func (l *daemonLoad) cycle(gen int) (ckpt, restore time.Duration) {
	l.body.Reset(l.obj)
	l.sink = sliceWriter{buf: l.got}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		restore = l.call("client.get", func() {
			_, err := l.get.Get(objectName(gen-1), &l.sink)
			l.op(err)
		})
	}()
	ckpt = l.call("client.put", func() {
		l.op(l.put.Put(objectName(gen), &l.body, int64(len(l.obj))))
	})
	wg.Wait()
	return ckpt, restore
}

func (l *daemonLoad) verify(gen int) {
	if l.sink.n != len(l.got) || !sameImage(l.got, l.obj, gen-1) {
		l.failed.Add(1)
	}
}

func (l *daemonLoad) close() error {
	var err error
	for _, c := range []*client.Client{l.put, l.get} {
		if c != nil {
			err = errors.Join(err, c.Close())
		}
	}
	return errors.Join(err, l.d.stop())
}

// ---- stripe-gen: a checkpoint series over three daemons ----

const (
	stripeNodes    = 3
	stripeReplicas = 2
)

type stripeLoad struct {
	loadBase
	seed     int64
	daemons  []*daemon
	nodes    []stripe.Node
	store    *stripe.Store
	obj, got []byte
	body     bytes.Reader
	sink     sliceWriter
	nc       nodeCounts
}

func newStripeLoad(dir string, seed int64, tr *tracer, object int64) (*stripeLoad, error) {
	l := &stripeLoad{seed: seed, obj: make([]byte, object), got: make([]byte, object)}
	l.tr = tr
	l.nc.putBytes = make(map[string]int64)
	l.userBytes = object
	fillPayload(l.obj, seed*1000)
	for i := 0; i < stripeNodes; i++ {
		back, err := l.backend(filepath.Join(dir, fmt.Sprintf("d%d", i)))
		if err != nil {
			l.close()
			return nil, err
		}
		d, err := startDaemon(back, tr, &l.wire)
		if err != nil {
			l.close()
			return nil, err
		}
		l.daemons = append(l.daemons, d)
		l.mounts = append(l.mounts, d.fs)
		cn, err := stripe.DialNode(d.addr, 0)
		if err != nil {
			l.close()
			return nil, err
		}
		l.nodes = append(l.nodes, &benchNode{Node: cn, id: fmt.Sprintf("n%d", i), tr: tr, c: &l.nc})
	}
	l.store = stripe.New(stripe.Config{ChunkSize: chunkSize, Replicas: stripeReplicas}, l.nodes...)
	return l, nil
}

func (l *stripeLoad) base() *loadBase { return &l.loadBase }

// prepare makes generation gen of the series: a quarter of the chunks,
// rotating through the object, get new bytes in every page; the other
// three quarters are the previous generation's.
func (l *stripeLoad) prepare(gen int) {
	chunks := (len(l.obj) + chunkSize - 1) / chunkSize
	dirty := max(chunks/4, 1)
	for i := 0; i < dirty; i++ {
		c := (gen*dirty + i) % chunks
		lo, hi := c*chunkSize, min((c+1)*chunkSize, len(l.obj))
		for off := lo; off+8 <= hi; off += pageSize {
			binary.LittleEndian.PutUint64(l.obj[off:], uint64(l.seed)<<32^uint64(gen+1)*0x9E3779B97F4A7C15^uint64(off))
		}
	}
}

func (l *stripeLoad) cycle(gen int) (ckpt, restore time.Duration) {
	l.body.Reset(l.obj)
	ckpt = l.phase("stripe.put", func() {
		l.op(l.store.Put(objectName(gen), &l.body, int64(len(l.obj))))
	})
	l.sink = sliceWriter{buf: l.got}
	restore = l.phase("stripe.get", func() {
		_, err := l.store.Get(objectName(gen), &l.sink)
		l.op(err)
	})
	return ckpt, restore
}

func (l *stripeLoad) verify(int) {
	if l.sink.n != len(l.got) || !bytes.Equal(l.got, l.obj) {
		l.failed.Add(1)
	}
}

func (l *stripeLoad) close() error {
	var err error
	for _, n := range l.nodes {
		err = errors.Join(err, n.Close())
	}
	for _, d := range l.daemons {
		err = errors.Join(err, d.stop())
	}
	return err
}
