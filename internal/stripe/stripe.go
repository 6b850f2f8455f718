package stripe

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	StraysDeleted    int64 // unreferenced objects garbage-collected
}

// Store is the striped-store coordinator. It is safe for concurrent
// use. Membership is fixed at New: nodes, ids and slots are never
// written afterwards.
type Store struct {
	cfg    Config
	tracer *obs.Tracer

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
// checkpoint object. Chunks upload with bounded parallelism (the
// per-node in-flight cap times the node count); the manifest commits
// last, to every node, so a failed Put never leaves a restorable-looking
// object — at worst unreferenced chunks that scrub collects.
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
	ctx := sp.Context()
	if len(s.ids) == 0 {
		return ErrNoNodes
	}
	k := s.cfg.Replicas
	if k > len(s.ids) {
		k = len(s.ids)
	}

	m := &Manifest{
		Object:    name,
		Size:      size,
		ChunkSize: s.cfg.ChunkSize,
		Replicas:  k,
		Chunks:    make([]Chunk, (size+s.cfg.ChunkSize-1)/s.cfg.ChunkSize),
	}

	// The body is taken in order, but uploads overlap: each chunk goes to
	// a goroutine that pushes its k replicas at once under the per-node
	// caps, fingerprinting it on the way, and gives back its window slot. A slot is
	// held from before the chunk's bytes are taken until its last push
	// ends, so buffered memory is at most inflight × ChunkSize.
	p := &chunkPut{s: s, m: m, ctx: ctx, window: make(chan struct{}, len(s.ids)*perNodeInFlight)}
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
		return err
	}
	return s.writeManifest(m)
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

	mu  sync.Mutex
	err error // first failure; it wins
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
// The goroutine pushes the chunk's replicas together, all from the same
// bytes: the first itself, fingerprinting the chunk as it goes, and each
// other one from a goroutine of its own. After the last push it returns
// data to the free list if it is owned, and gives the slot back.
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
		cname := ChunkName(p.m.Object, idx)
		nodes := Place(p.s.ids, cname, p.m.Replicas)
		var pushes sync.WaitGroup
		for _, id := range nodes[1:] {
			pushes.Add(1)
			go func() {
				defer pushes.Done()
				p.push(idx, cname, id, bytes.NewReader(data), len(data))
			}()
		}
		fp := &fingerprintReader{b: data}
		p.push(idx, cname, nodes[0], fp, len(data))
		p.m.Chunks[idx] = Chunk{
			Offset: int64(idx) * p.m.ChunkSize,
			Length: int64(len(data)),
			CRC:    fp.sum(),
			Nodes:  nodes,
		}
		pushes.Wait()
		if owned {
			p.s.bufs.Put(data)
		}
		<-p.window
	}()
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
// same copies.
func (s *Store) readManifest(name string) (*Manifest, error) {
	mname := ManifestName(name)
	var lastErr error = fmt.Errorf("stripe: GET %s: %w", mname, ErrNoNodes)
	for _, id := range s.ids {
		var buf bytes.Buffer
		if _, err := s.nodes[id].Get(mname, &buf); err != nil {
			lastErr = err
			continue
		}
		m, err := DecodeManifest(buf.Bytes())
		if err != nil {
			lastErr = fmt.Errorf("stripe: manifest copy on %s: %w", id, err)
			continue
		}
		return m, nil
	}
	return nil, lastErr
}

// Get restores object name into w, striping reads across the replica
// holders with bounded parallelism and delivering chunks strictly in
// order. Every chunk is verified against its manifest fingerprint; a
// bad or unreachable replica fails over to the next, so the restore
// succeeds as long as one clean copy of every chunk survives.
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
	cname := ChunkName(m.Object, idx)
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

// Delete removes object name: every chunk replica the manifest
// references, then every manifest copy. Missing pieces are fine — the
// verb is idempotent end to end.
func (s *Store) Delete(name string) error {
	if len(s.ids) == 0 {
		return ErrNoNodes
	}
	m, err := s.readManifest(name)
	if err == nil {
		for idx, c := range m.Chunks {
			cname := ChunkName(name, idx)
			for _, id := range c.Nodes {
				if node, ok := s.nodes[id]; ok {
					if derr := node.Delete(cname); derr != nil && err == nil {
						err = derr
					}
				}
			}
		}
	} else if errors.Is(err, vfs.ErrNotExist) {
		err = nil
	}
	mname := ManifestName(name)
	for _, id := range s.ids {
		if derr := s.nodes[id].Delete(mname); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// List returns the store's object names — the union of manifests
// visible on reachable nodes — sorted.
func (s *Store) List() ([]string, error) {
	seen := make(map[string]bool)
	var reachable int
	for _, id := range s.ids {
		names, err := s.nodes[id].List()
		if err != nil {
			continue
		}
		reachable++
		for _, n := range names {
			if obj, _, kind := ParseObjectName(n); kind == KindManifest {
				seen[obj] = true
			}
		}
	}
	if reachable == 0 && len(s.ids) > 0 {
		return nil, fmt.Errorf("stripe: LIST: %w", ErrNoNodes)
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
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
