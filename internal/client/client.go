// Package client is the protocol-v2 client used by crfscp and the
// striped store coordinator: one persistent connection carrying
// many framed requests, multiplexed up to the server's advertised
// in-flight cap. All methods are safe for concurrent use; each blocks
// until its request completes.
//
// A transport failure kills the underlying session, but not necessarily
// the Client: with Config.Redials > 0 the Client redials the server and
// retries idempotent verbs (GET before any byte was delivered, DEL,
// LIST, STAT, SCRUB, PING) transparently. A PUT whose body stream was
// already consumed cannot be replayed from the client's side, so it
// fails with ErrSessionPoisoned and the caller re-stages.
package client

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"crfs/internal/obs"
	"crfs/internal/server"
)

// dialTimeout bounds the TCP connect plus hello exchange.
const dialTimeout = 10 * time.Second

// Config tunes a Client. The zero value is usable.
type Config struct {
	// IOTimeout, when positive, bounds each frame read/write on the wire.
	// Zero means no per-frame deadline.
	IOTimeout time.Duration
	// Redials bounds automatic reconnects over the Client's lifetime:
	// after a transport failure, idempotent requests redial and retry up
	// to this many times instead of failing the whole run. 0 disables
	// (the first session loss is final).
	Redials int
}

// ErrSessionPoisoned reports that a request died with the session: the
// connection failed after the request's body stream was (partially)
// consumed, so the client cannot replay it. The caller owns the
// recovery — re-stage the PUT body and retry on the redialed Client.
var ErrSessionPoisoned = errors.New("client: session poisoned")

// RemoteError is an error frame returned by the server for one request:
// the request failed but the session is still usable. Msg carries the
// server's error text verbatim. Transport and protocol failures are
// reported as other error types and poison the session.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return e.Msg }

// Is reports the server's answer for a name that does not exist as
// fs.ErrNotExist (vfs.ErrNotExist): the wire carries error text, the
// server says absence in fs.ErrNotExist's words, and this is where it
// gets its type back.
func (e *RemoteError) Is(target error) bool {
	return target == fs.ErrNotExist && strings.Contains(e.Msg, fs.ErrNotExist.Error())
}

// Client is a protocol-v2 client: a live session plus the redial policy
// that replaces it when it dies. It is the daemon's vfs.Objects.
type Client struct {
	addr string
	cfg  Config

	mu      sync.Mutex
	sess    *session
	redials int // reconnects consumed
	closed  bool
}

// Dial connects to a protocol-v2 server and completes the hello
// exchange.
func Dial(addr string, cfg Config) (*Client, error) {
	s, err := dialSession(addr, cfg)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, cfg: cfg, sess: s}, nil
}

// session returns a live session to run a request on, redialing within
// the budget when the current one is dead. The dial happens under the
// Client lock — bounded by dialTimeout — so concurrent requests agree
// on one replacement session instead of racing to dial their own.
func (c *Client) session() (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	if !c.sess.dead() {
		return c.sess, nil
	}
	if c.redials >= c.cfg.Redials {
		return nil, c.sess.sessionErr()
	}
	c.redials++
	s, err := dialSession(c.addr, c.cfg)
	if err != nil {
		return nil, fmt.Errorf("client: redial %s: %w", c.addr, err)
	}
	c.sess.teardown(net.ErrClosed)
	c.sess = s
	return s, nil
}

// MaxInFlight reports the server's advertised per-connection request
// cap (from the current session's hello).
func (c *Client) MaxInFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess.maxInFlight
}

// Close tears the connection down; in-flight requests fail and no
// redial follows.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	s := c.sess
	c.mu.Unlock()
	s.teardown(net.ErrClosed)
	return nil
}

// noRetry wraps an error the retry loop must surface as-is even though
// the session died — e.g. a GET that already delivered body bytes.
type noRetry struct{ error }

func (e noRetry) Unwrap() error { return e.error }

// retry runs op on a live session, redialing and retrying while op's
// failures are session deaths and the redial budget lasts. Request-level
// failures (RemoteError, client-side validation) return immediately.
func (c *Client) retry(op func(*session) error) error {
	for {
		s, err := c.session()
		if err != nil {
			return err
		}
		err = op(s)
		var nr noRetry
		if errors.As(err, &nr) {
			return nr.error
		}
		if err == nil || !s.dead() {
			return err
		}
	}
}

// Put streams size bytes from r to the server under name. The server
// stages the body and commits it only on clean completion, so a failed
// Put never leaves a partial file visible. If the session dies after
// any of r was consumed, Put fails with ErrSessionPoisoned (r cannot be
// rewound from here); a session death before r was touched redials and
// retries within the budget.
func (c *Client) Put(name string, r io.Reader, size int64) error {
	return c.PutTraced(name, r, size, obs.SpanContext{})
}

// PutTraced is Put carrying a trace context: when the server
// advertised trace=1 in its hello and ctx is valid, the request line
// propagates ctx's trace ID so the daemon's spans for this PUT join
// the caller's trace. Against an older server it behaves exactly like
// Put.
func (c *Client) PutTraced(name string, r io.Reader, size int64, ctx obs.SpanContext) error {
	// Validate before any wire traffic: a bad name (a space would corrupt
	// the verb line) must fail this one request, not the whole session.
	if err := server.ValidateName(name); err != nil {
		return fmt.Errorf("client: PUT: %w", err)
	}
	for {
		s, err := c.session()
		if err != nil {
			return err
		}
		consumed, err := s.put(name, r, size, ctx)
		if err == nil || !s.dead() {
			return err
		}
		if consumed {
			return fmt.Errorf("client: PUT %s: %w: %w", name, ErrSessionPoisoned, err)
		}
	}
}

// Get streams name's content into w and returns the byte count. On a
// mid-stream server error, bytes already received have been written to
// w and the error reports the failure — error text is never written
// into w as content. A session death before the first byte reached w
// redials and retries; after that, retrying would duplicate delivered
// bytes, so the failure is surfaced instead.
func (c *Client) Get(name string, w io.Writer) (int64, error) {
	return c.GetTraced(name, w, obs.SpanContext{})
}

// GetTraced is Get carrying a trace context (see PutTraced).
func (c *Client) GetTraced(name string, w io.Writer, ctx obs.SpanContext) (int64, error) {
	if err := server.ValidateName(name); err != nil {
		return 0, fmt.Errorf("client: GET: %w", err)
	}
	var n int64
	err := c.retry(func(s *session) error {
		var err error
		n, err = s.get(name, w, ctx)
		if err != nil && n > 0 && s.dead() {
			return noRetry{fmt.Errorf("client: GET %s: session lost after %d bytes delivered: %w", name, n, err)}
		}
		return err
	})
	return n, err
}

// Delete removes name from the store. Deleting a name that does not
// exist succeeds (the verb is idempotent), so Delete retries freely.
func (c *Client) Delete(name string) error {
	if err := server.ValidateName(name); err != nil {
		return fmt.Errorf("client: DEL: %w", err)
	}
	return c.retry(func(s *session) error {
		_, err := s.simple("DEL " + name)
		return err
	})
}

// List returns every object name on the server, sorted.
func (c *Client) List() ([]string, error) {
	var names []string
	err := c.retry(func(s *session) error {
		var err error
		names, err = s.list()
		return err
	})
	return names, err
}

// Stat returns the server's one-line stats summary.
func (c *Client) Stat() (string, error) { return c.simpleRetry("STAT") }

// Scrub runs a scrub pass on the server and returns its summary line.
func (c *Client) Scrub() (string, error) { return c.simpleRetry("SCRUB") }

// TraceDump fetches the server's span ring — filtered to one trace
// when trace is nonzero, the whole ring otherwise — as decoded span
// records. The caller merges dumps from several daemons (and its own
// tracer) into one timeline; obs.ChromeTrace renders the merge.
func (c *Client) TraceDump(trace obs.TraceID) ([]obs.SpanRecord, error) {
	var recs []obs.SpanRecord
	err := c.retry(func(s *session) error {
		var err error
		recs, err = s.traceDump(trace)
		return err
	})
	return recs, err
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.simpleRetry("PING")
	return err
}

func (c *Client) simpleRetry(verb string) (string, error) {
	var line string
	err := c.retry(func(s *session) error {
		var err error
		line, err = s.simple(verb)
		return err
	})
	return line, err
}

// ---- session: one connection's lifetime ----

// session is one protocol-v2 connection: the demux reader, the pending
// request table, and the in-flight slots. A session never heals — any
// transport or framing failure marks it dead and the Client decides
// whether a fresh one replaces it.
//
// Exactly one goroutine reads the connection at any moment. The demux
// reader reads every frame header and every control payload; a data
// frame's payload it leaves on the connection for the request the frame
// belongs to, which reads it (readData) and hands the connection back on
// turn.
type session struct {
	nc  net.Conn
	br  *bufio.Reader
	hdr [server.HeaderLen]byte // the demux reader's header buffer

	wmu sync.Mutex // serializes frame writes (frames are atomic on the wire)

	maxInFlight int
	traceCap    bool // server hello advertised trace=1
	sem         chan struct{}
	ioTimeout   time.Duration

	done chan struct{} // closed once by fail(); wakes every waiter
	turn chan struct{} // a data frame's reader hands the connection back

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan frame
	err     error
}

// frame is one routed response frame. A data frame's n payload bytes are
// still on the connection: its receiver reads them with readData. Any
// other frame's payload was read by the demux reader into a buffer from
// the server package's frame free list, owned by whoever receives the
// frame: it calls free (or text) when done with the bytes.
type frame struct {
	typ     uint8
	n       int
	payload []byte
}

// free returns the frame's payload buffer to the free list.
func (f frame) free() { server.FrameBufs.Put(f.payload) }

// text copies the payload out as a string and frees the buffer.
func (f frame) text() string {
	s := string(f.payload)
	f.free()
	return s
}

// dialSession connects and completes the hello exchange.
func dialSession(addr string, cfg Config) (*session, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	s := &session{
		nc:        nc,
		br:        bufio.NewReaderSize(nc, server.ConnBufSize),
		ioTimeout: cfg.IOTimeout,
		done:      make(chan struct{}),
		turn:      make(chan struct{}, 1),
		pending:   make(map[uint32]chan frame),
	}
	nc.SetDeadline(time.Now().Add(dialTimeout))
	if _, err := io.WriteString(nc, server.HelloLine); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	hdr, payload, err := server.ReadFrame(s.br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: reading server hello: %w", err)
	}
	if hdr.Type != server.FrameHello || hdr.ReqID != 0 {
		nc.Close()
		return nil, fmt.Errorf("client: unexpected first frame type %#x: %w", hdr.Type, server.ErrProtocol)
	}
	s.maxInFlight, s.traceCap, err = parseHello(string(payload))
	if err != nil {
		// A server that mis-advertises its in-flight cap would silently
		// serialize (or desync) every request on this session: fail the
		// dial loudly instead of degrading.
		nc.Close()
		return nil, err
	}
	s.sem = make(chan struct{}, s.maxInFlight)
	nc.SetDeadline(time.Time{})
	go s.reader()
	return s, nil
}

// parseHello extracts maxinflight and the trace capability from the
// server hello. A hello that omits maxinflight or carries a malformed
// value is a protocol error; unknown fields are ignored (they are how
// the hello grows), and a missing trace=1 just means an older daemon.
func parseHello(hello string) (maxInFlight int, traceCap bool, err error) {
	for _, f := range strings.Fields(hello) {
		if f == "trace=1" {
			traceCap = true
			continue
		}
		v, ok := strings.CutPrefix(f, "maxinflight=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return 0, false, fmt.Errorf("client: malformed maxinflight %q in server hello %q: %w", v, hello, server.ErrProtocol)
		}
		maxInFlight = n
	}
	if maxInFlight == 0 {
		return 0, false, fmt.Errorf("client: server hello %q advertises no maxinflight: %w", hello, server.ErrProtocol)
	}
	return maxInFlight, traceCap, nil
}

// traceSuffix renders the optional trailing trace field for a verb
// line: empty unless the server advertised trace=1 and ctx is valid,
// so traced calls degrade to untraced ones against older daemons.
func (s *session) traceSuffix(ctx obs.SpanContext) string {
	if !s.traceCap || !ctx.Valid() {
		return ""
	}
	return " " + server.TraceField(uint64(ctx.Trace))
}

// dead reports whether the session has failed.
func (s *session) dead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil
}

// teardown force-fails the session and closes its connection.
func (s *session) teardown(cause error) {
	s.fail(cause)
	s.nc.Close()
}

// fail marks the session dead and wakes every pending request. The
// per-request channels are never closed — the reader may be blocked
// sending on one concurrently, and a send on a closed channel panics —
// waiters wake via the done channel instead.
func (s *session) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = err
	close(s.done)
}

// poison fails the session for a framing-level violation (the stream is
// no longer in a known state) and returns the error for the caller.
func (s *session) poison(err error) error {
	s.fail(err)
	s.nc.Close()
	return err
}

// reader is the demux goroutine. It reads every frame header and routes
// the frame to the request that owns it. A control frame's payload it
// reads into a free-list buffer that goes with the frame. A data frame it
// hands over with its payload still on the connection, and waits until
// the request has read it; a data frame nobody waits for any more it
// reads past.
func (s *session) reader() {
	for {
		hdr, err := s.readHeader()
		if err != nil {
			s.teardown(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		f := frame{typ: hdr.Type, n: int(hdr.Len)}
		if hdr.Type == server.FrameData && hdr.ReqID != 0 {
			if !s.route(hdr.ReqID, f) {
				// Data for a request that is over, or that we already
				// gave up on; skip it.
				if _, err := s.br.Discard(f.n); err != nil {
					s.teardown(fmt.Errorf("client: connection lost: %w", err))
					return
				}
				continue
			}
			select {
			case <-s.turn:
			case <-s.done:
				return
			}
			continue
		}
		f.payload = server.FrameBufs.Get(f.n)
		if err := server.ReadPayload(s.br, f.payload); err != nil {
			f.free()
			s.teardown(fmt.Errorf("client: connection lost: short frame payload: %w", err))
			return
		}
		if hdr.ReqID == 0 {
			// Connection-level error (protocol violation report): fatal.
			s.teardown(fmt.Errorf("client: server closed the session: %s", f.text()))
			return
		}
		if !s.route(hdr.ReqID, f) {
			// A response for a request we already gave up on; drop it.
			f.free()
		}
	}
}

// route hands f to request id under the table lock, so the request
// either forgets its id first or finds the frame when it does (forget).
// It reports false when the request is over, or when its slot already
// holds the terminal frame (a data frame is taken before it is read).
func (s *session) route(id uint32, f frame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.pending[id] <- f: // a nil channel (no such request) is never ready
		return true
	default:
		return false
	}
}

// readHeader reads and validates one frame header, under the optional IO
// deadline; the deadline covers the frame's payload too, whoever reads
// it.
func (s *session) readHeader() (server.Header, error) {
	if s.ioTimeout > 0 {
		s.nc.SetReadDeadline(time.Now().Add(s.ioTimeout))
	}
	if _, err := io.ReadFull(s.br, s.hdr[:]); err != nil {
		return server.Header{}, err
	}
	return server.ParseFrameHeader(s.hdr[:])
}

// begin registers a new request and sends its req frame.
func (s *session) begin(line string) (uint32, chan frame, error) {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return 0, nil, err
	}
	s.nextID++
	if s.nextID == 0 {
		s.nextID = 1
	}
	id := s.nextID
	// One slot lets the reader route a request's next frame while the
	// request is busy with the last one. A deeper queue would hold
	// nothing: the reader hands over one data frame at a time and waits
	// for it to be read, and a request gets one terminal frame.
	ch := make(chan frame, 1)
	s.pending[id] = ch
	s.mu.Unlock()
	if err := s.writeFrame(server.FrameReq, id, []byte(line)); err != nil {
		s.forget(id)
		return 0, nil, err
	}
	return id, ch, nil
}

// forget unregisters request id. A data frame routed to it after its
// last receive has its payload still on the connection, and the demux
// reader waiting for it to be read: forget reads past it instead.
func (s *session) forget(id uint32) {
	s.mu.Lock()
	ch := s.pending[id]
	delete(s.pending, id)
	s.mu.Unlock()
	select {
	case f := <-ch:
		if f.typ == server.FrameData {
			// A failed read has torn the session down; nothing is left to do.
			s.readData(io.Discard, nil, f.n)
		} else {
			f.free()
		}
	default:
	}
}

// writeFrame writes one frame atomically (header and payload in one
// vectored write, under one lock hold). A write failure kills the
// session: the peer's view of the stream is unknowable past a short
// write.
func (s *session) writeFrame(typ uint8, id uint32, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.ioTimeout > 0 {
		s.nc.SetWriteDeadline(time.Now().Add(s.ioTimeout))
	}
	if err := server.WriteFrame(s.nc, typ, id, payload); err != nil {
		s.fail(fmt.Errorf("client: writing frame: %w", err))
		s.nc.Close()
		return err
	}
	return nil
}

// recv blocks for the next frame routed to ch. When the session dies it
// still prefers a frame the reader already delivered — a response that
// raced Close is a response, not an error.
func (s *session) recv(ch chan frame) (frame, error) {
	select {
	case f := <-ch:
		return f, nil
	case <-s.done:
		select {
		case f := <-ch:
			return f, nil
		default:
			return frame{}, s.sessionErr()
		}
	}
}

// wait blocks for the request's terminal frame, returning the payload
// of the end frame or the error frame's text as an error.
func (s *session) wait(id uint32, ch chan frame) (string, error) {
	defer s.forget(id)
	f, err := s.recv(ch)
	if err != nil {
		return "", err
	}
	text := f.text()
	switch f.typ {
	case server.FrameEnd:
		return text, nil
	case server.FrameErr:
		return "", &RemoteError{Msg: text}
	default:
		return "", s.poison(fmt.Errorf("client: unexpected frame type %#x: %w", f.typ, server.ErrProtocol))
	}
}

func (s *session) sessionErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return net.ErrClosed
}

// acquire takes an in-flight slot (the server refuses requests past its
// advertised cap, so the client queues locally instead).
func (s *session) acquire() { s.sem <- struct{}{} }
func (s *session) release() { <-s.sem }

// put streams one PUT. consumed reports whether any of r was read —
// once true, the request cannot be transparently replayed.
func (s *session) put(name string, r io.Reader, size int64, ctx obs.SpanContext) (consumed bool, err error) {
	s.acquire()
	defer s.release()
	id, ch, err := s.begin(fmt.Sprintf("PUT %s %d%s", name, size, s.traceSuffix(ctx)))
	if err != nil {
		return false, err
	}
	defer s.forget(id)
	w := frameSink{s: s, id: id, ch: ch, name: name, left: size}
	defer w.release()
	if size > 0 {
		if w.answered() {
			return consumed, w.err
		}
		consumed = true
		_, err := io.Copy(&w, r)
		if w.err != nil {
			return consumed, w.err
		}
		if w.left > 0 {
			// The body source failed or ran short: we cannot complete the
			// declared size, so this session is unusable; tear it down.
			err = cmp.Or(err, io.ErrUnexpectedEOF)
			s.teardown(fmt.Errorf("client: PUT %s: body source failed: %w", name, err))
			return consumed, fmt.Errorf("client: PUT %s: reading body: %w", name, err)
		}
	}
	if err := s.writeFrame(server.FrameEnd, id, nil); err != nil {
		return consumed, err
	}
	line, err := s.wait(id, ch)
	if err != nil {
		return consumed, err
	}
	if !strings.HasPrefix(line, "OK") {
		return consumed, s.poison(fmt.Errorf("client: PUT %s: bad response %q: %w", name, line, server.ErrProtocol))
	}
	return consumed, nil
}

// errSizeReached stops a body source that offers bytes past the
// declared size; Put leaves them unread.
var errSizeReached = errors.New("client: PUT body is longer than its declared size")

// frameSink takes one PUT body and sends it as data frames of request id:
// DataChunk bytes each but the last, and never more than the declared
// size. Write sends each whole frame inside p straight from p — the
// kernel holds the bytes once writeFrame returns, so p is not retained —
// and gathers a shorter remainder in the staging buffer until that is
// full or the body ends. ReadFrom, for a source that cannot hand its
// bytes over, reads every frame into the staging buffer. io.Copy picks
// the path.
type frameSink struct {
	s    *session
	id   uint32
	ch   chan frame
	name string
	left int64  // body bytes not yet taken
	buf  []byte // staging: a free-list frame buffer, taken on first use
	n    int    // bytes staged in buf
	err  error  // why sending stopped early, once it has
}

// answered reports whether the request ended before its body did: an
// early error response (cap exceeded, draining, bad name) means the
// server is discarding the body, so the sink closes it out; a dead
// session ends it too. The outcome is in w.err.
func (w *frameSink) answered() bool {
	select {
	case f := <-w.ch:
		msg := f.text()
		if f.typ == server.FrameErr {
			w.s.writeFrame(server.FrameEnd, w.id, nil)
			w.err = &RemoteError{Msg: msg}
		} else {
			w.err = w.s.poison(fmt.Errorf("client: PUT %s: early frame type %#x: %w", w.name, f.typ, server.ErrProtocol))
		}
		return true
	case <-w.s.done:
		w.err = w.s.sessionErr()
		return true
	default:
		return false
	}
}

// send writes p as one data frame unless the request has ended, and
// reports whether the body may go on.
func (w *frameSink) send(p []byte) bool {
	if w.answered() {
		return false
	}
	if err := w.s.writeFrame(server.FrameData, w.id, p); err != nil {
		w.err = err
		return false
	}
	return true
}

// stage returns the staging buffer, taking it from the free list first.
func (w *frameSink) stage() []byte {
	if w.buf == nil {
		w.buf = server.FrameBufs.Get(server.DataChunk)
	}
	return w.buf
}

// flush sends the staged bytes once they fill a frame or end the body.
func (w *frameSink) flush() bool {
	if w.n < len(w.buf) && w.left > 0 {
		return true
	}
	ok := w.send(w.buf[:w.n])
	w.n = 0
	return ok
}

func (w *frameSink) release() { server.FrameBufs.Put(w.buf) }

func (w *frameSink) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	var past error
	if int64(len(p)) > w.left {
		p, past = p[:w.left], errSizeReached
	}
	var taken int
	for len(p) > 0 {
		if w.n == 0 && (len(p) >= server.DataChunk || int64(len(p)) == w.left) {
			f := p[:min(len(p), server.DataChunk)]
			w.left -= int64(len(f))
			if !w.send(f) {
				return taken, w.err
			}
			p, taken = p[len(f):], taken+len(f)
			continue
		}
		c := copy(w.stage()[w.n:], p)
		w.n += c
		w.left -= int64(c)
		p, taken = p[c:], taken+c
		if !w.flush() {
			return taken, w.err
		}
	}
	return taken, past
}

func (w *frameSink) ReadFrom(r io.Reader) (int64, error) {
	var read int64
	for w.left > 0 && w.err == nil {
		want := int(min(int64(len(w.stage())-w.n), w.left))
		c, err := io.ReadFull(r, w.buf[w.n:w.n+want])
		w.n += c
		w.left -= int64(c)
		read += int64(c)
		if err != nil {
			return read, err
		}
		w.flush()
	}
	return read, w.err
}

// ReadSink is a GET destination that lends the client the memory the
// next body bytes belong in, so they are read off the connection straight
// into it rather than into a frame buffer and then copied by Write. (Not
// io.ReaderFrom: *os.File has one, which from a socket copies through
// 32 KiB buffers it allocates on every call.)
type ReadSink interface {
	io.Writer
	// Next returns memory for the next body bytes, of which the client
	// fills a prefix. An empty slice means the sink has no room left; the
	// rest of the body goes to Write, one call per data frame.
	Next() []byte
	// Landed reports that the first n bytes of the memory the last Next
	// returned now hold the body's next n bytes. Bytes past them are not
	// the body's, even if the client wrote there.
	Landed(n int)
}

// readData reads the n payload bytes of a data frame off the connection
// into w and hands the connection back to the demux reader. A ReadSink
// gets the bytes read straight into its memory for as long as it has
// room; whatever is left is read into a free-list buffer and given to
// w.Write in one call. It returns the bytes w took. A failed read or a
// failed Write tears the session down: the stream can no longer be
// trusted, or the server would keep sending a body nobody takes.
func (s *session) readData(w io.Writer, rs ReadSink, n int) (int64, error) {
	if n == 0 {
		s.turn <- struct{}{}
		return 0, nil
	}
	var took int64
	for rs != nil {
		p := rs.Next()
		if len(p) == 0 {
			break
		}
		p = p[:min(len(p), n)]
		if err := server.ReadPayload(s.br, p); err != nil {
			return took, s.lost(err)
		}
		n -= len(p)
		if n == 0 {
			s.turn <- struct{}{}
		}
		rs.Landed(len(p))
		took += int64(len(p))
		if n == 0 {
			return took, nil
		}
	}
	buf := server.FrameBufs.Get(n)
	if err := server.ReadPayload(s.br, buf); err != nil {
		server.FrameBufs.Put(buf)
		return took, s.lost(err)
	}
	s.turn <- struct{}{}
	wn, err := w.Write(buf)
	server.FrameBufs.Put(buf)
	took += int64(wn)
	if err != nil {
		s.teardown(fmt.Errorf("client: sink failed: %w", err))
		return took, fmt.Errorf("writing body: %w", err)
	}
	return took, nil
}

// lost tears the session down after a failed payload read.
func (s *session) lost(err error) error {
	s.teardown(fmt.Errorf("client: connection lost: %w", err))
	return fmt.Errorf("reading body: %w", err)
}

// stream runs one request whose answer is a body: its data frames go
// into w, and the end frame's text is returned for the verb to check.
// It returns the body bytes w took. This is the one loop every body a
// client receives goes through.
func (s *session) stream(line string, w io.Writer) (int64, string, error) {
	s.acquire()
	defer s.release()
	id, ch, err := s.begin(line)
	if err != nil {
		return 0, "", err
	}
	defer s.forget(id)
	rs, _ := w.(ReadSink)
	var n int64
	for {
		f, err := s.recv(ch)
		if err != nil {
			return n, "", err
		}
		switch f.typ {
		case server.FrameData:
			wn, err := s.readData(w, rs, f.n)
			n += wn
			if err != nil {
				return n, "", fmt.Errorf("client: %s: %w", label(line), err)
			}
		case server.FrameEnd:
			return n, f.text(), nil
		case server.FrameErr:
			return n, "", &RemoteError{Msg: f.text()}
		default:
			f.free()
			return n, "", s.poison(fmt.Errorf("client: %s: unexpected frame type %#x: %w", label(line), f.typ, server.ErrProtocol))
		}
	}
}

// label is a verb line without its trace field, to name the request in
// an error.
func label(line string) string {
	l, _, _ := strings.Cut(line, " T=")
	return l
}

// trailerCount parses the "OK <n>" text of a body's end frame.
func trailerCount(line string) (int64, bool) {
	var n int64
	_, err := fmt.Sscanf(line, "OK %d", &n)
	return n, err == nil
}

// get streams one GET into w, returning the bytes delivered.
func (s *session) get(name string, w io.Writer, ctx obs.SpanContext) (int64, error) {
	n, line, err := s.stream("GET "+name+s.traceSuffix(ctx), w)
	if err != nil {
		return n, err
	}
	if size, ok := trailerCount(line); !ok || size != n {
		return n, s.poison(fmt.Errorf("client: GET %s: got %d bytes, trailer %q: %w", name, n, line, server.ErrProtocol))
	}
	return n, nil
}

// list runs one LIST, buffering the streamed body so a retried LIST
// never exposes a partial listing.
func (s *session) list() ([]string, error) {
	var body bytes.Buffer
	_, line, err := s.stream("LIST", &body)
	if err != nil {
		return nil, err
	}
	count, ok := trailerCount(line)
	if !ok {
		return nil, s.poison(fmt.Errorf("client: LIST: bad trailer %q: %w", line, server.ErrProtocol))
	}
	names := []string{}
	for _, ln := range strings.Split(body.String(), "\n") {
		if ln != "" {
			names = append(names, ln)
		}
	}
	if int64(len(names)) != count {
		return nil, s.poison(fmt.Errorf("client: LIST: %d names, trailer count %d: %w", len(names), count, server.ErrProtocol))
	}
	return names, nil
}

// traceDump runs one TRACE, buffering the streamed records body so a
// retried dump never decodes a partial document.
func (s *session) traceDump(trace obs.TraceID) ([]obs.SpanRecord, error) {
	if !s.traceCap {
		return nil, fmt.Errorf("client: TRACE: server does not advertise trace support: %w", server.ErrProtocol)
	}
	line := "TRACE"
	if trace != 0 {
		line = fmt.Sprintf("TRACE %016x", uint64(trace))
	}
	var body bytes.Buffer
	_, trailer, err := s.stream(line, &body)
	if err != nil {
		return nil, err
	}
	count, ok := trailerCount(trailer)
	if !ok {
		return nil, s.poison(fmt.Errorf("client: TRACE: bad trailer %q: %w", trailer, server.ErrProtocol))
	}
	recs, err := obs.ParseRecords(body.Bytes())
	if err != nil {
		return nil, s.poison(fmt.Errorf("client: TRACE: bad records body: %w: %w", err, server.ErrProtocol))
	}
	if int64(len(recs)) != count {
		return nil, s.poison(fmt.Errorf("client: TRACE: %d records, trailer count %d: %w", len(recs), count, server.ErrProtocol))
	}
	return recs, nil
}

func (s *session) simple(verb string) (string, error) {
	s.acquire()
	defer s.release()
	id, ch, err := s.begin(verb)
	if err != nil {
		return "", err
	}
	return s.wait(id, ch)
}
