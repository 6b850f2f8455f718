package stripe

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crfs/internal/client"
	"crfs/internal/codec"
	"crfs/internal/freelist"
	"crfs/internal/obs"
	"crfs/internal/server"
	"crfs/internal/vfs"
)

// DefaultChunkSize is the stripe unit. Large enough that per-chunk
// round-trip overhead amortizes, small enough that a modest checkpoint
// still spreads across every node.
const DefaultChunkSize = 4 << 20

// DefaultReplicas is the chunk replication factor.
const DefaultReplicas = 2

// perNodeInFlight caps concurrent chunk transfers per node. The cap is
// what makes striping scale honestly: a coordinator over N nodes
// sustains N times the in-flight chunk transfers of a single node, no
// matter how many goroutines the caller throws at it.
const perNodeInFlight = 4

// Config tunes a Store. The zero value gets defaults.
type Config struct {
	ChunkSize int64
	Replicas  int
	// Tracer receives the coordinator's spans (put/get/scrub and their
	// per-chunk transfers). nil selects the process-wide obs.Default
	// tracer, which starts disabled.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	return c
}

// ErrNoNodes reports an operation on a store with no nodes.
var ErrNoNodes = errors.New("stripe: no nodes")

// ErrChunkLost reports a chunk none of whose replicas could produce
// fingerprint-clean bytes — data loss beyond what replication covers.
var ErrChunkLost = errors.New("stripe: chunk lost on all replicas")

// storeCounters aggregates coordinator activity. All fields are
// atomics; snapshot via Stats.
type storeCounters struct {
	chunksPut        atomic.Int64
	chunksGot        atomic.Int64
	bytesPut         atomic.Int64
	bytesGot         atomic.Int64
	replicaFallbacks atomic.Int64
	checksumFailed   atomic.Int64
	chunksRepaired   atomic.Int64
	manifestsFixed   atomic.Int64
	straysDeleted    atomic.Int64
}

// Stats is a point-in-time snapshot of coordinator counters.
type Stats struct {
	ChunksPut        int64 // chunk replicas written (k per logical chunk)
	ChunksGot        int64 // chunk reads served to restores
	BytesPut         int64 // payload bytes written across all replicas
	BytesGot         int64 // payload bytes delivered to restores
	ReplicaFallbacks int64 // restore reads that failed over to another replica
	ChecksumFailed   int64 // chunk reads whose fingerprint did not match
	ChunksRepaired   int64 // bad or missing replicas rewritten from good copies
	ManifestsFixed   int64 // manifest copies rewritten by scrub
	StraysDeleted    int64 // chunk replicas no manifest references, swept
}

// Store is the striped-store coordinator. It is safe for concurrent
// use, but a sweep waits for every Put and Get in flight and holds off
// new ones while it runs, so an overwrite that sweeps returns only
// after the Gets running when it committed have delivered. Membership
// is fixed at New: nodes, ids and slots are never written afterwards.
//
// Chunks are named by their content and never overwritten; the sweep
// deletes those no committed manifest references. Within one Store, mu
// orders the sweep against everything that relies on a chunk staying:
// a Put holds it shared from its listing of the nodes until its
// manifest commits, a Get from its manifest read until its last chunk
// is delivered, and the sweep holds it exclusively. So a Put's body and
// a Get's sink must not wait on a Put, Delete or Scrub of the same
// Store, nor on a Get of it once a sweep may be queued. Across
// processes nothing orders them, so a node set has one writing
// coordinator at a time: a Store that puts, deletes or scrubs beside
// another Store doing any of those over the same nodes may sweep chunks
// the other's Put is about to reference. Leftovers of failed Puts, and
// of two overwrites of one name racing, are swept by the next sweep.
type Store struct {
	cfg    Config
	tracer *obs.Tracer
	mu     sync.RWMutex

	// superseded counts the versions overwrites and deletes replaced
	// since the last sweep; it is written under mu held exclusively.
	// objects is how many objects the last listing showed.
	superseded int64
	objects    atomic.Int64
	// epoch is bumped as every Put and every Scrub's repair pass starts
	// and as it ends: a Put that finds it one past the value its own
	// start made knows that nothing else added a manifest since it
	// listed the nodes.
	epoch atomic.Int64

	nodes map[string]Node
	ids   []string                 // node IDs, sorted
	slots map[string]chan struct{} // per-node in-flight caps

	// bufs holds ChunkSize buffers; a chunk of an object striped with a
	// larger unit gets a one-off. Their holders — Put's intake then the
	// chunk's upload, Get's fetcher then the in-order writer — sit inside
	// an operation's in-flight window, and Scrub holds at most two at
	// once. It keeps one window's worth idle.
	bufs freelist.List

	c storeCounters
}

// New returns a coordinator over the given nodes. A node listed twice
// under one ID counts once, as its last listing.
func New(cfg Config, nodes ...Node) *Store {
	s := &Store{
		cfg:    cfg.withDefaults(),
		tracer: cfg.Tracer,
		nodes:  make(map[string]Node),
		slots:  make(map[string]chan struct{}),
	}
	if s.tracer == nil {
		s.tracer = obs.Default
	}
	for _, n := range nodes {
		if _, ok := s.nodes[n.ID()]; !ok {
			s.ids = append(s.ids, n.ID())
			s.slots[n.ID()] = make(chan struct{}, perNodeInFlight)
		}
		s.nodes[n.ID()] = n
	}
	sort.Strings(s.ids)
	s.bufs = freelist.New(int(s.cfg.ChunkSize), len(s.nodes)*perNodeInFlight)
	return s
}

// Stats snapshots the coordinator counters.
func (s *Store) Stats() Stats {
	return Stats{
		ChunksPut:        s.c.chunksPut.Load(),
		ChunksGot:        s.c.chunksGot.Load(),
		BytesPut:         s.c.bytesPut.Load(),
		BytesGot:         s.c.bytesGot.Load(),
		ReplicaFallbacks: s.c.replicaFallbacks.Load(),
		ChecksumFailed:   s.c.checksumFailed.Load(),
		ChunksRepaired:   s.c.chunksRepaired.Load(),
		ManifestsFixed:   s.c.manifestsFixed.Load(),
		StraysDeleted:    s.c.straysDeleted.Load(),
	}
}

// slot acquires an in-flight slot on member node id, returning the
// release.
func (s *Store) slot(id string) func() {
	ch := s.slots[id]
	ch <- struct{}{}
	return func() { <-ch }
}

// Put stripes size bytes from r across the membership as one
// checkpoint object. Each chunk is named by its content and pushed only
// to the placed nodes that do not hold that name yet, with bounded
// parallelism (the per-node in-flight cap times the node count); the
// manifest commits last, to every node, so a failed Put never leaves a
// restorable-looking object and never touches the version it was to
// replace — at worst unreferenced chunks that the next sweep collects.
// An overwrite counts toward the next sweep (see collect) and may run
// it. r must not wait on a Put, Delete or Scrub of this Store, nor on a
// Get of it: a sweep queued behind this Put holds the Get off.
func (s *Store) Put(name string, r io.Reader, size int64) error {
	return s.PutTraced(name, r, size, obs.SpanContext{})
}

// PutTraced is Put under a trace: the whole checkpoint gets a
// "stripe.put" span (joined to parent when valid, a fresh trace
// otherwise), every chunk upload gets a child span, and the trace ID
// rides the wire to each daemon, so one striped checkpoint renders as
// one cross-node timeline.
func (s *Store) PutTraced(name string, r io.Reader, size int64, parent obs.SpanContext) error {
	if err := server.ValidateName(name); err != nil {
		return fmt.Errorf("stripe: PUT: %w", err)
	}
	if size < 0 {
		return fmt.Errorf("stripe: PUT %s: negative size %d: %w", name, size, vfs.ErrInvalid)
	}
	var sp obs.Span
	if s.tracer.Enabled() {
		sp = s.tracer.StartChild("stripe.put", parent)
		sp.Attr("object", name)
		sp.AttrInt("bytes", size)
		defer sp.End()
	}
	if len(s.ids) == 0 {
		return ErrNoNodes
	}
	held, epoch, overwrite, err := s.put(name, r, size, sp.Context())
	if err == nil && overwrite {
		s.collect(held, epoch)
	}
	return err
}

// put is Put under the shared lock: it lists every node, uploads the
// chunks no placed node holds and commits the manifest. It reports
// whether a node held a manifest of name, and for such an overwrite what
// the nodes hold once it has committed, as far as its listing and its
// own pushes tell (nil when a node did not list), and the epoch after
// it.
func (s *Store) put(name string, r io.Reader, size int64, ctx obs.SpanContext) (held holdings, epoch int64, overwrite bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	epoch = s.epoch.Add(1) + 1
	defer s.epoch.Add(1)
	// A node that does not list is taken to hold nothing; a push to it
	// then fails the Put.
	held, missing := s.listAll()
	objs := held.objects()
	s.objects.Store(int64(len(objs)))
	_, overwrite = slices.BinarySearch(objs, name)
	m := &Manifest{
		Object:    name,
		Size:      size,
		ChunkSize: s.cfg.ChunkSize,
		Replicas:  min(s.cfg.Replicas, len(s.ids)),
		Chunks:    make([]Chunk, (size+s.cfg.ChunkSize-1)/s.cfg.ChunkSize),
	}

	// The body is taken in order, but uploads overlap: each chunk goes to
	// a goroutine that names it, pushes it to the placed nodes lacking it
	// at once under the per-node caps, fingerprinting it on the way, and
	// gives back its window slot. A slot is held from before the chunk's
	// bytes are taken until its last push ends, so buffered memory is at
	// most inflight × ChunkSize.
	p := &chunkPut{
		s: s, m: m, ctx: ctx, window: make(chan struct{}, len(s.ids)*perNodeInFlight),
		held: held, pushed: make(map[replica]bool),
	}
	if len(m.Chunks) > 0 {
		_, err := io.Copy(p, r)
		if p.buf != nil { // a chunk half gathered when the body ended
			s.bufs.Put(p.buf)
			<-p.window
		}
		if p.next < len(m.Chunks) {
			p.setErr(fmt.Errorf("stripe: PUT %s: reading body chunk %d: %w", name, p.next, cmp.Or(err, io.ErrUnexpectedEOF)))
		}
	}
	p.owned.Wait()
	if err := p.failed(); err != nil {
		return nil, 0, false, err
	}
	if err := s.writeManifest(m); err != nil || missing > 0 || !overwrite {
		return nil, 0, overwrite, err
	}
	for r := range p.pushed {
		held[r.node] = append(held[r.node], r.name)
	}
	for id, names := range held {
		names = append(names, ManifestName(name))
		slices.Sort(names)
		held[id] = slices.Compact(names)
	}
	return held, epoch, overwrite, nil
}

// replica is one chunk name on one node.
type replica struct{ node, name string }

// holdings maps a node ID to the object names the node listed, sorted.
type holdings map[string][]string

// find returns the index of r's name in its node's listing, or -1.
func (h holdings) find(r replica) int {
	names := h[r.node]
	if i := sort.SearchStrings(names, r.name); i < len(names) && names[i] == r.name {
		return i
	}
	return -1
}

// objects returns the names of the objects with a manifest copy in h,
// sorted; never nil.
func (h holdings) objects() []string {
	objs := []string{}
	for _, names := range h {
		for _, n := range names {
			if obj, _, kind := ParseObjectName(n); kind == KindManifest {
				objs = append(objs, obj)
			}
		}
	}
	slices.Sort(objs)
	return slices.Compact(objs)
}

// listAll lists every node, leaving out and counting those that do not
// answer.
func (s *Store) listAll() (h holdings, missing int) {
	h = make(holdings, len(s.ids))
	for _, id := range s.ids {
		if names, err := s.nodes[id].List(); err == nil {
			h[id] = names
		} else {
			missing++
		}
	}
	return h, missing
}

// errSizeReached stops a body source that offers bytes past the declared
// size; Put leaves them unread.
var errSizeReached = errors.New("stripe: body is longer than its declared size")

// chunkPut takes one Put's body and cuts it into chunks. Write uploads
// each whole chunk inside p straight from p and returns once those
// uploads end, so p is not retained; only a chunk split across two
// Writes is gathered in a free-list buffer. ReadFrom, for a source that
// cannot hand its bytes over, reads every chunk into a free-list buffer.
// io.Copy picks the path. Write and ReadFrom run on the Put's goroutine.
type chunkPut struct {
	s      *Store
	m      *Manifest
	ctx    obs.SpanContext
	window chan struct{}  // one slot per chunk taken and not yet uploaded
	owned  sync.WaitGroup // uploads from free-list buffers
	lent   sync.WaitGroup // uploads from the bytes of the current Write

	next int    // index of the chunk being taken
	buf  []byte // free-list buffer gathering chunk next, or nil
	n    int    // bytes gathered in buf

	held   holdings // what the nodes listed before the first chunk was taken
	mu     sync.Mutex
	pushed map[replica]bool // replicas this Put pushes
	err    error            // first failure; it wins
}

func (p *chunkPut) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *chunkPut) failed() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// chunkLen is the length of chunk idx.
func (p *chunkPut) chunkLen(idx int) int64 {
	return min(p.m.ChunkSize, p.m.Size-int64(idx)*p.m.ChunkSize)
}

// begin takes a window slot for chunk next, unless the Put has failed.
func (p *chunkPut) begin() error {
	if err := p.failed(); err != nil {
		return err
	}
	p.window <- struct{}{}
	return nil
}

func (p *chunkPut) Write(b []byte) (int, error) {
	defer p.lent.Wait()
	var taken int
	for len(b) > 0 {
		if p.next == len(p.m.Chunks) {
			return taken, errSizeReached
		}
		length := p.chunkLen(p.next)
		if p.buf == nil {
			if err := p.begin(); err != nil {
				return taken, err
			}
			if int64(len(b)) >= length {
				p.dispatch(b[:length], false)
				b, taken = b[length:], taken+int(length)
				continue
			}
			p.buf = p.s.bufs.Get(int(length))
		}
		c := copy(p.buf[p.n:], b)
		p.n += c
		b, taken = b[c:], taken+c
		if p.n == len(p.buf) {
			p.dispatch(p.buf, true)
			p.buf, p.n = nil, 0
		}
	}
	return taken, nil
}

func (p *chunkPut) ReadFrom(r io.Reader) (int64, error) {
	var read int64
	for p.next < len(p.m.Chunks) {
		if p.buf == nil {
			if err := p.begin(); err != nil {
				return read, err
			}
			p.buf = p.s.bufs.Get(int(p.chunkLen(p.next)))
		}
		c, err := io.ReadFull(r, p.buf[p.n:])
		p.n += c
		read += int64(c)
		if err != nil {
			return read, err
		}
		p.dispatch(p.buf, true)
		p.buf, p.n = nil, 0
	}
	return read, nil
}

// dispatch uploads data as chunk next under the window slot begin took.
// The goroutine names the chunk by hashing data and pushes it to each
// placed node that lacks the name, all at once and all from data: the
// first push itself, fingerprinting the chunk as it goes, and each other
// one from a goroutine of its own. After the last push it returns data
// to the free list if it is owned, and gives the slot back.
func (p *chunkPut) dispatch(data []byte, owned bool) {
	idx := p.next
	p.next++
	wg := &p.lent
	if owned {
		wg = &p.owned
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		name := contentName(data)
		nodes := Place(p.s.ids, name, p.m.Replicas)
		need := p.claim(name, nodes)
		var pushes sync.WaitGroup
		for _, id := range need[min(1, len(need)):] {
			pushes.Add(1)
			go func() {
				defer pushes.Done()
				p.push(idx, name, id, bytes.NewReader(data), len(data))
			}()
		}
		var crc uint32
		if len(need) > 0 {
			fp := &fingerprintReader{b: data}
			p.push(idx, name, need[0], fp, len(data))
			crc = fp.sum()
		} else {
			crc = crc32.Checksum(data, castagnoli)
		}
		p.m.Chunks[idx] = Chunk{
			Offset: int64(idx) * p.m.ChunkSize,
			Length: int64(len(data)),
			CRC:    crc,
			Name:   name,
			Nodes:  nodes,
		}
		pushes.Wait()
		if owned {
			p.s.bufs.Put(data)
		}
		<-p.window
	}()
}

// claim returns the nodes among placed that neither listed name nor are
// pushed it by this Put already, and marks it pushed to them: an equal
// chunk later in the Put is pushed nowhere.
func (p *chunkPut) claim(name string, placed []string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var need []string
	for _, id := range placed {
		if r := (replica{id, name}); p.held.find(r) < 0 && !p.pushed[r] {
			p.pushed[r] = true
			need = append(need, id)
		}
	}
	return need
}

// push writes one replica of chunk idx, size bytes from body, to node id
// under the node's slot.
func (p *chunkPut) push(idx int, cname, id string, body io.Reader, size int) {
	s := p.s
	var csp obs.Span
	if s.tracer.Enabled() && p.ctx.Valid() {
		csp = s.tracer.StartChild("stripe.chunk.put", p.ctx)
		csp.AttrInt("idx", int64(idx))
		csp.Attr("node", id)
		csp.AttrInt("bytes", int64(size))
	}
	release := s.slot(id)
	err := vfs.PutTraced(s.nodes[id], cname, body, int64(size), csp.Context())
	release()
	csp.End()
	if err != nil {
		p.setErr(fmt.Errorf("stripe: PUT %s: chunk %d to %s: %w", p.m.Object, idx, id, err))
		return
	}
	s.c.chunksPut.Add(1)
	s.c.bytesPut.Add(int64(size))
}

// castagnoli is the CRC32-C table behind codec.Checksum: fingerprintReader
// takes a chunk's fingerprint with it on PUT, and chunkSink checks it on
// GET and scrub.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fingerprintReader is a chunk's body for one of its replica pushes: it
// fingerprints each piece of b as soon as the node has taken it, while
// the piece is still in cache, rather than in a pass of its own. WriteTo
// hands b over in pieces of one data frame, which the client sends as
// they come.
type fingerprintReader struct {
	b   []byte
	off int    // bytes taken so far
	crc uint32 // CRC32-C of b[:off]
}

func (r *fingerprintReader) Read(p []byte) (int, error) {
	if r.off == len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.crc = crc32.Update(r.crc, castagnoli, r.b[r.off:r.off+n])
	r.off += n
	return n, nil
}

func (r *fingerprintReader) WriteTo(w io.Writer) (int64, error) {
	start := r.off
	for r.off < len(r.b) {
		piece := r.b[r.off:min(r.off+server.DataChunk, len(r.b))]
		n, err := w.Write(piece)
		r.crc = crc32.Update(r.crc, castagnoli, piece[:n])
		r.off += n
		if err != nil {
			return int64(r.off - start), err
		}
	}
	return int64(r.off - start), nil
}

// sum is the CRC32-C of all of b, including any part the node did not
// take: the manifest must fingerprint the chunk, not what one node read.
func (r *fingerprintReader) sum() uint32 {
	return crc32.Update(r.crc, castagnoli, r.b[r.off:])
}

// writeManifest commits m to every node. The copies go out in parallel,
// each under its node's in-flight cap; every node is attempted, and the
// error reported is that of the first failing node in ID order.
func (s *Store) writeManifest(m *Manifest) error {
	enc := m.Encode()
	mname := ManifestName(m.Object)
	errs := make([]error, len(s.ids))
	var wg sync.WaitGroup
	for i, id := range s.ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			defer s.slot(id)()
			if err := s.nodes[id].Put(mname, bytes.NewReader(enc), int64(len(enc))); err != nil {
				errs[i] = fmt.Errorf("stripe: manifest %s to %s: %w", mname, id, err)
			}
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readManifest fetches and decodes the first intact manifest copy,
// trying the nodes in sorted ID order (s.ids) so repeated reads hit the
// same copies. With no intact copy, a node that answered "absent" makes
// the error vfs.ErrNotExist, whatever a down node answered.
func (s *Store) readManifest(name string) (*Manifest, error) {
	mname := ManifestName(name)
	var absent error
	var lastErr error = fmt.Errorf("stripe: GET %s: %w", mname, ErrNoNodes)
	for _, id := range s.ids {
		m, err := s.readCopy(id, mname)
		switch {
		case err == nil:
			return m, nil
		case errors.Is(err, vfs.ErrNotExist):
			absent = err
		default:
			lastErr = err
		}
	}
	if absent != nil {
		return nil, absent
	}
	return nil, lastErr
}

// readCopy fetches and decodes node id's copy of manifest mname.
func (s *Store) readCopy(id, mname string) (*Manifest, error) {
	b, err := s.fetchCopy(id, mname)
	if err != nil {
		return nil, err
	}
	defer s.bufs.Put(b)
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("stripe: manifest copy on %s: %w", id, err)
	}
	return m, nil
}

// fetchCopy returns the bytes of node id's copy of manifest mname in a
// free-list buffer, or in a one-off when it is longer than a chunk; the
// caller gives it back to s.bufs.
func (s *Store) fetchCopy(id, mname string) ([]byte, error) {
	sink := chunkSink{buf: s.bufs.Get(int(s.cfg.ChunkSize))}
	for {
		if _, err := s.nodes[id].Get(mname, &sink); err != nil {
			s.bufs.Put(sink.buf)
			return nil, err
		}
		if sink.n <= int64(len(sink.buf)) {
			return sink.buf[:sink.n], nil
		}
		s.bufs.Put(sink.buf)
		sink = chunkSink{buf: s.bufs.Get(int(sink.n))}
	}
}

// Get restores object name into w, striping reads across the replica
// holders with bounded parallelism and delivering chunks strictly in
// order. Every chunk is verified against its manifest fingerprint; a
// bad or unreachable replica fails over to the next, so the restore
// succeeds as long as one clean copy of every chunk survives. No sweep
// of this Store runs until the last chunk is delivered, so a Get racing
// an overwrite of its name delivers one version whole — and w must not
// wait on a Put, Delete or Scrub of this Store.
func (s *Store) Get(name string, w io.Writer) (int64, error) {
	return s.GetTraced(name, w, obs.SpanContext{})
}

// GetTraced is Get under a trace (see PutTraced): a "stripe.get" span
// over the restore, a child span per chunk fetch, and wire propagation
// to the daemons serving the replicas.
func (s *Store) GetTraced(name string, w io.Writer, parent obs.SpanContext) (int64, error) {
	if err := server.ValidateName(name); err != nil {
		return 0, fmt.Errorf("stripe: GET: %w", err)
	}
	var sp obs.Span
	if s.tracer.Enabled() {
		sp = s.tracer.StartChild("stripe.get", parent)
		sp.Attr("object", name)
		defer sp.End()
	}
	ctx := sp.Context()
	if len(s.ids) == 0 {
		return 0, ErrNoNodes
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, err := s.readManifest(name)
	if err != nil {
		return 0, err
	}

	type result struct {
		buf []byte
		err error
	}
	results := make([]chan result, len(m.Chunks))
	for i := range results {
		results[i] = make(chan result)
	}
	// One fetcher per chunk, gated by a global window and the per-node
	// caps; the writer drains results strictly in order. Slots are taken
	// in chunk order and a chunk's slot is held until its bytes are
	// written, so at most inflight chunk buffers are alive however far
	// the sink falls behind. A result goes only to the writer waiting for
	// it, so a fetcher the writer gave up on returns its buffer, and Get
	// returns once every fetcher has.
	inflight := len(s.ids) * perNodeInFlight
	window := make(chan struct{}, inflight)
	done := make(chan struct{})
	var fetchers sync.WaitGroup
	defer fetchers.Wait()
	defer close(done)
	fetchers.Add(1)
	go func() {
		defer fetchers.Done()
		for idx := range m.Chunks {
			select {
			case window <- struct{}{}:
			case <-done:
				return
			}
			fetchers.Add(1)
			go func(idx int) {
				defer fetchers.Done()
				buf, err := s.fetchChunk(m, idx, ctx)
				select {
				case results[idx] <- result{buf: buf, err: err}:
				case <-done:
					s.bufs.Put(buf)
				}
			}(idx)
		}
	}()

	var n int64
	for idx := range m.Chunks {
		res := <-results[idx]
		if res.err != nil {
			return n, res.err
		}
		wn, werr := w.Write(res.buf)
		s.bufs.Put(res.buf)
		<-window
		n += int64(wn)
		if werr != nil {
			return n, fmt.Errorf("stripe: GET %s: writing chunk %d: %w", name, idx, werr)
		}
		s.c.chunksGot.Add(1)
		s.c.bytesGot.Add(int64(wn))
	}
	if n != m.Size {
		return n, fmt.Errorf("stripe: GET %s: delivered %d bytes, manifest says %d", name, n, m.Size)
	}
	return n, nil
}

// chunkSink collects one replica of a chunk in a fixed buffer and
// fingerprints it as it lands. Over the wire the client reads each data
// frame straight into the buffer (client.ReadSink), and Landed takes the
// CRC32-C of the piece right after, while it is in cache; a node that
// hands bytes to Write is fingerprinted as they are copied in. Bytes past
// the buffer's end — a replica longer than the manifest says — are
// counted but not stored, so matches refuses the replica without failing
// the transfer it arrived on.
type chunkSink struct {
	buf []byte
	n   int64  // bytes delivered, stored or not
	crc uint32 // CRC32-C of the bytes stored
}

var _ client.ReadSink = (*chunkSink)(nil)

func (w *chunkSink) Next() []byte {
	if w.n >= int64(len(w.buf)) {
		return nil
	}
	return w.buf[w.n:]
}

func (w *chunkSink) Landed(n int) {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.n:w.n+int64(n)])
	w.n += int64(n)
}

func (w *chunkSink) Write(p []byte) (int, error) {
	if w.n < int64(len(w.buf)) {
		c := copy(w.buf[w.n:], p)
		w.crc = crc32.Update(w.crc, castagnoli, p[:c])
	}
	w.n += int64(len(p))
	return len(p), nil
}

// matches reports whether the sink holds exactly chunk c: its length and
// its fingerprint.
func (w *chunkSink) matches(c Chunk) bool {
	return w.n == c.Length && w.crc == c.CRC
}

// fetchChunk returns fingerprint-verified bytes for chunk idx, trying
// replicas in placement order. The bytes are in a free-list buffer the
// caller owns and returns to s.bufs.
func (s *Store) fetchChunk(m *Manifest, idx int, ctx obs.SpanContext) ([]byte, error) {
	c := m.Chunks[idx]
	cname := c.Name
	buf := s.bufs.Get(int(c.Length))
	var lastErr error
	for tries, id := range c.Nodes {
		node, ok := s.nodes[id]
		if !ok {
			lastErr = fmt.Errorf("stripe: GET %s: replica node %s detached", cname, id)
			continue
		}
		var csp obs.Span
		if s.tracer.Enabled() && ctx.Valid() {
			csp = s.tracer.StartChild("stripe.chunk.get", ctx)
			csp.AttrInt("idx", int64(idx))
			csp.Attr("node", id)
			csp.AttrInt("bytes", c.Length)
		}
		sink := chunkSink{buf: buf}
		release := s.slot(id)
		_, err := vfs.GetTraced(node, cname, &sink, csp.Context())
		release()
		csp.End()
		if err != nil {
			lastErr = err
			if tries < len(c.Nodes)-1 {
				s.c.replicaFallbacks.Add(1)
			}
			continue
		}
		if !sink.matches(c) {
			s.c.checksumFailed.Add(1)
			lastErr = fmt.Errorf("stripe: GET %s on %s: %d bytes, fingerprint mismatch: %w",
				cname, id, sink.n, codec.ErrChecksum)
			if tries < len(c.Nodes)-1 {
				s.c.replicaFallbacks.Add(1)
			}
			continue
		}
		return buf, nil
	}
	s.bufs.Put(buf)
	return nil, fmt.Errorf("%w: %s: last error: %w", ErrChunkLost, cname, lastErr)
}

// Delete removes object name: every manifest copy, then — once every
// copy is gone — it counts toward the next sweep (see collect), which
// deletes the chunk replicas no other manifest references. A missing
// name is fine: the verb is idempotent end to end.
func (s *Store) Delete(name string) error {
	if len(s.ids) == 0 {
		return ErrNoNodes
	}
	mname := ManifestName(name)
	var err error
	for _, id := range s.ids {
		if derr := s.nodes[id].Delete(mname); derr != nil && err == nil {
			err = derr
		}
	}
	if err == nil {
		s.collect(nil, 0)
	}
	return err
}

// supersededShare sets how often overwrites and deletes sweep: once the
// versions they replaced since the last sweep reach 1/supersededShare
// of the objects last listed.
const supersededShare = 4

// collect counts one replaced version and sweeps when one is due. A
// sweep reads every manifest copy in the store, so sweeping after every
// overwrite would cost a job that re-checkpoints N objects N² manifest
// reads a generation; this way an overwrite pays for the copies of about
// supersededShare objects, and the versions waiting to be swept are
// about 1/supersededShare of the objects at most. The sweep works from
// held, what a Put that ended at epoch saw the nodes hold, when no other
// Put or Scrub has started or ended since; otherwise it lists the nodes.
func (s *Store) collect(held holdings, epoch int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.superseded++; s.superseded*supersededShare < s.objects.Load() {
		return
	}
	if s.epoch.Load() != epoch {
		held = nil
	}
	s.sweep(held)
}

// sweep deletes every chunk replica that no committed manifest places on
// its node, and returns how many it deleted. The caller holds mu
// exclusively, so no Put or Get of this Store is in flight: it lists
// every node, unless given what they hold, and reads every copy of every
// listed manifest, and keeps a replica any intact copy places — copies
// differ when a node missed an overwrite, and both versions stay until a
// scrub rewrites every copy as the first intact one. When a node does
// not list, or a copy does not read or decode, what the store
// references is not known, and it deletes nothing.
func (s *Store) sweep(listed holdings) int {
	if listed == nil {
		var missing int
		if listed, missing = s.listAll(); missing > 0 {
			return 0
		}
	}
	// referenced[id][i] is set once a manifest places listed[id][i] on id.
	referenced := make(map[string][]bool, len(listed))
	for id, names := range listed {
		referenced[id] = make([]bool, len(names))
	}
	mark := func(m *Manifest) {
		for _, c := range m.Chunks {
			for _, id := range c.Nodes {
				if i := listed.find(replica{id, c.Name}); i >= 0 {
					referenced[id][i] = true
				}
			}
		}
	}
	objs := listed.objects()
	for _, obj := range objs {
		if !s.markCopies(listed, obj, mark) {
			return 0
		}
	}
	s.objects.Store(int64(len(objs)))
	s.superseded = 0
	// Each node deletes its own replicas, all nodes at once.
	var deleted atomic.Int64
	var wg sync.WaitGroup
	for id, names := range listed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, n := range names {
				if !referenced[id][i] && isContentName(n) && s.nodes[id].Delete(n) == nil {
					deleted.Add(1)
					s.c.straysDeleted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(deleted.Load())
}

// markCopies reads every copy of obj's manifest that listed shows and
// marks what each places; a copy equal to one read before is not decoded
// again. It reports whether every copy read: one gone since the listing
// counts as read, and so does one in the old format, which names no
// content-named chunk.
func (s *Store) markCopies(listed holdings, obj string, mark func(*Manifest)) bool {
	mname := ManifestName(obj)
	var seen [][sha256.Size]byte
	for _, id := range s.ids {
		if listed.find(replica{id, mname}) < 0 {
			continue
		}
		b, err := s.fetchCopy(id, mname)
		if errors.Is(err, vfs.ErrNotExist) {
			continue
		}
		if err != nil {
			return false
		}
		sum := sha256.Sum256(b)
		if slices.Contains(seen, sum) {
			s.bufs.Put(b)
			continue
		}
		seen = append(seen, sum)
		m, err := DecodeManifest(b)
		s.bufs.Put(b)
		switch {
		case err == nil:
			mark(m)
		case !errors.Is(err, ErrManifestVersion):
			return false
		}
	}
	return true
}

// List returns the store's object names — the union of manifests
// visible on reachable nodes — sorted.
func (s *Store) List() ([]string, error) {
	h, missing := s.listAll()
	if missing > 0 && missing == len(s.ids) {
		return nil, fmt.Errorf("stripe: LIST: %w", ErrNoNodes)
	}
	return h.objects(), nil
}

// TraceDumps collects the span rings of every node that supports trace
// dumping (crfsd daemons with trace=1), filtered to one trace when
// trace is nonzero, merged into one record list. Nodes that cannot
// dump — or fail to — are skipped: a trace is a diagnostic, not a
// durability contract.
func (s *Store) TraceDumps(trace obs.TraceID) []obs.SpanRecord {
	var recs []obs.SpanRecord
	for _, id := range s.ids {
		td, ok := s.nodes[id].(interface {
			TraceDump(obs.TraceID) ([]obs.SpanRecord, error)
		})
		if !ok {
			continue
		}
		if r, err := td.TraceDump(trace); err == nil {
			recs = append(recs, r...)
		}
	}
	return recs
}
