package main

import (
	"encoding/json"
	"io"
	"math/bits"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crfs/internal/stripe"
	"crfs/internal/vfs"
)

// The traced pass observes the library from outside: spans and counts
// are recorded here, around calls into each layer's public functions and
// inside thin wrappers the benchmark owns (a vfs.FS around osfs, a
// stripe.Node around ClientNode, a net.Listener handed to server.Serve).
// The untraced pass uses none of this: a nil *tracer selects the bare
// objects, so end-to-end numbers carry no timing calls.

// span is one timed interval. Spans of one cycle share its cycle id;
// parent is the id of the span that caused this one (0 = root).
type span struct {
	id, parent int32
	cycle      int32
	name       string
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	on    atomic.Bool  // set for the measured cycles; warm-up and rungs record nothing
	cycle atomic.Int32 // id of the cycle in progress
	scope atomic.Int32 // span that wrapper-recorded spans hang under
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id, 0 while recording is off.
func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on.Load() {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, cycle: t.cycle.Load(), name: name, start: now})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if id == 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.end = now
	d := s.end - s.start
	t.mu.Unlock()
	return time.Duration(d)
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.name] += float64(s.end-s.start-covered) / 1e9
	}
	return out
}

// writeChrome writes the spans as a chrome://tracing JSON array. Each
// cycle gets its own thread lane so its spans nest visibly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.cycle, Args: map[string]any{"id": s.id, "parent": s.parent, "cycle": s.cycle},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hist is a log-linear latency histogram: 16 sub-buckets per power of
// two of nanoseconds (≈6 % resolution), no allocation per sample. The
// 512 B write loop observes millions of calls, too many to keep.
type hist struct {
	counts [64 * 16]int64
	n, sum int64
}

func (h *hist) observe(d time.Duration) {
	v := uint64(max(d, 1))
	e := bits.Len64(v) - 1
	sub := uint64(0)
	if e >= 4 {
		sub = (v >> (e - 4)) & 15
	} else {
		sub = (v << (4 - e)) & 15
	}
	h.counts[e*16+int(sub)]++
	h.n++
	h.sum += int64(d)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the lower edge of the bucket holding quantile q.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	for i, c := range h.counts {
		if rank < c {
			e, sub := i/16, uint64(i%16)
			return time.Duration((16 + sub) << e >> 4)
		}
		rank -= c
	}
	return 0
}

// fsCounts is what the osfs wrapper counts.
type fsCounts struct {
	writeCalls, writeBytes, writeNs atomic.Int64
	readCalls, readBytes, readNs    atomic.Int64
	metaCalls                       atomic.Int64
}

// tracedFS wraps the backend handed to crfs.Mount: it times and counts
// the calls core makes into osfs.
type tracedFS struct {
	vfs.FS
	tr *tracer
	c  *fsCounts
}

func (t *tracedFS) meta(name string) func() {
	id := t.tr.begin(name, t.tr.scope.Load())
	if id != 0 {
		t.c.metaCalls.Add(1)
	}
	return func() { t.tr.end(id) }
}

func (t *tracedFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	defer t.meta("osfs.open")()
	f, err := t.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: t}, nil
}

func (t *tracedFS) Stat(name string) (vfs.FileInfo, error) {
	defer t.meta("osfs.stat")()
	return t.FS.Stat(name)
}

func (t *tracedFS) Rename(oldName, newName string) error {
	defer t.meta("osfs.rename")()
	return t.FS.Rename(oldName, newName)
}

func (t *tracedFS) Remove(name string) error {
	defer t.meta("osfs.remove")()
	return t.FS.Remove(name)
}

type tracedFile struct {
	vfs.File
	fs *tracedFS
}

// spanMinBytes is the smallest backend transfer that gets a span of its
// own. Smaller ones are still counted and timed: a 512 B read loop makes
// millions of them, too many to keep as spans, and their time then shows
// as self time of the span above them.
const spanMinBytes = 64 << 10

// io times one backend transfer of n bytes.
func (f *tracedFile) io(name string, n int, calls, bytes, ns *atomic.Int64, do func() (int, error)) (int, error) {
	tr := f.fs.tr
	if !tr.on.Load() {
		return do()
	}
	var id int32
	if n >= spanMinBytes {
		id = tr.begin(name, tr.scope.Load())
	}
	t0 := time.Now()
	done, err := do()
	ns.Add(int64(time.Since(t0)))
	tr.end(id)
	calls.Add(1)
	bytes.Add(int64(done))
	return done, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	c := f.fs.c
	return f.io("osfs.write", len(p), &c.writeCalls, &c.writeBytes, &c.writeNs, func() (int, error) { return f.File.WriteAt(p, off) })
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	c := f.fs.c
	return f.io("osfs.read", len(p), &c.readCalls, &c.readBytes, &c.readNs, func() (int, error) { return f.File.ReadAt(p, off) })
}

// wireCounts is what the daemon-side connection wrapper counts: every
// Read and Write the server issues on an accepted socket.
type wireCounts struct {
	reads, readBytes, writes, writeBytes atomic.Int64
}

// countingListener is handed to server.Serve in the traced pass.
type countingListener struct {
	net.Listener
	tr *tracer
	c  *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, tr: l.tr, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	tr *tracer
	c  *wireCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.on.Load() {
		c.c.reads.Add(1)
		c.c.readBytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.on.Load() {
		c.c.writes.Add(1)
		c.c.writeBytes.Add(int64(n))
	}
	return n, err
}

// nodeCounts is what the stripe.Node wrapper records in the traced pass.
type nodeCounts struct {
	mu                     sync.Mutex
	putBytes               map[string]int64 // per node ID
	putCalls               int64            // chunk replicas and manifest copies
	putNs, getNs           int64
	manifestPutNs          int64
	putSamples, getSamples []float64 // seconds, chunk transfers only
}

// benchNode gives a stripe node a stable identity in both passes:
// ClientNode.ID() is the ephemeral listen address, and HRW placement
// hashes the ID, so without this the chunk layout would change every
// run. With a tracer it also times every call the coordinator makes.
type benchNode struct {
	stripe.Node
	id string
	tr *tracer
	c  *nodeCounts
}

func (n *benchNode) ID() string { return n.id }

func (n *benchNode) Put(name string, r io.Reader, size int64) error {
	if n.tr == nil || !n.tr.on.Load() {
		return n.Node.Put(name, r, size)
	}
	id := n.tr.begin("node.put", n.tr.scope.Load())
	err := n.Node.Put(name, r, size)
	d := n.tr.end(id)
	n.c.mu.Lock()
	n.c.putCalls++
	n.c.putNs += int64(d)
	n.c.putBytes[n.id] += size
	if _, _, kind := stripe.ParseObjectName(name); kind == stripe.KindManifest {
		n.c.manifestPutNs += int64(d)
	} else {
		n.c.putSamples = append(n.c.putSamples, d.Seconds())
	}
	n.c.mu.Unlock()
	return err
}

func (n *benchNode) Get(name string, w io.Writer) (int64, error) {
	if n.tr == nil || !n.tr.on.Load() {
		return n.Node.Get(name, w)
	}
	id := n.tr.begin("node.get", n.tr.scope.Load())
	nn, err := n.Node.Get(name, w)
	d := n.tr.end(id)
	n.c.mu.Lock()
	n.c.getNs += int64(d)
	if _, _, kind := stripe.ParseObjectName(name); kind == stripe.KindChunk {
		n.c.getSamples = append(n.c.getSamples, d.Seconds())
	}
	n.c.mu.Unlock()
	return nn, err
}
