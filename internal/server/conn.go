package server

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"crfs/internal/compact"
	"crfs/internal/metrics"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// maxRequestLine bounds the first line of a connection: the hello is
// seven bytes, so anything longer is garbage.
const maxRequestLine = 4096

// Queue depths, in frames. Together with the in-flight cap they bound the
// frame buffers one connection can hold (DESIGN.md, "crfsd protocol v2"):
// maxInFlight × bodyQueueDepth inbound plus outQueueDepth outbound, each
// up to DataChunk bytes. They are as shallow as overlap needs — one stage
// fills a frame while the next empties one. Every further slot is another
// 256 KiB a transfer may cycle through, and how full a deep queue runs,
// so how much memory and cache a transfer touches, is up to the
// scheduler; deeper queues measured no faster (EXPERIMENTS.md, "Wire data
// path").
const (
	// bodyQueueDepth is the slack between the connection reader and one
	// PUT handler's WriteAt.
	bodyQueueDepth = 1
	// outQueueDepth is the slack between the GET handlers of a connection
	// and its writer.
	outQueueDepth = 4
)

// maxRejectedIDs bounds the set of request ids whose body frames are
// being drained after an early error response; a client pushing past it
// is abusing the protocol and the connection is dropped.
const maxRejectedIDs = 64

// srvConn is one served connection.
type srvConn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	out        chan outFrame
	dead       chan struct{} // closed on teardown; unblocks every sender/receiver
	writerDone chan struct{} // closed when the writer has returned
	once       sync.Once
	fds        *fdSender // nil: GET bodies go out buffered only

	mu          sync.Mutex
	inFlight    map[uint32]*inReq
	rejected    map[uint32]bool
	expectBody  int // in-flight requests still owed body frames
	pendingResp int // responses queued but not yet counted complete
	draining    bool

	handlers sync.WaitGroup
}

// outFrame is one queued frame toward the client. A data frame's payload
// is a free-list buffer the writer owns from the moment it is queued and
// returns once written. last marks the graceful-close sentinel: flush
// everything written so far, then close. A descriptor frame carries no
// buffer: its body is n bytes of get's file at off (sendFD).
type outFrame struct {
	typ     uint8
	reqID   uint32
	payload []byte
	last    bool
	get     *fdGet
	off     int64
	n       int
}

// fdGet is a GET whose data frames go by descriptor. The writer counts
// them in sent and closes done after the last; the handler closes the
// file only after that, or after the writer has returned.
type fdGet struct {
	vfs.FDReader
	size int64
	sent int
	done chan struct{}
}

// fdSender is the writer's sendfile(2) state (newFDSender: Linux, TCP).
// Its method values are made once, so a frame allocates nothing.
type fdSender struct {
	rc       syscall.RawConn
	send     func(fd uintptr) error  // sendFD, for vfs.FDReader.ReadFD
	loop     func(sock uintptr) bool // step, for rc.Write
	in, left int                     // the file's descriptor, bytes to send
	off      int64
	err      error
}

// sendFD sends left bytes of fd at off. While the socket is full it waits
// in the poller, which applies the connection's write deadline.
func (s *fdSender) sendFD(fd uintptr) error {
	s.in, s.err = int(fd), nil
	if err := s.rc.Write(s.loop); err != nil {
		return err
	}
	return s.err
}

// buf is the free-list buffer f carries, if any.
func (f outFrame) buf() []byte {
	if f.typ != FrameData {
		return nil
	}
	return f.payload
}

// inReq is one in-flight request's routing state.
type inReq struct {
	body       chan bodyItem
	abort      chan struct{} // closed by complete(); unblocks a routeBody send after the handler quit
	expectBody bool
	bodyDone   bool
}

// bodyItem is one routed body frame (or the end-of-body marker). data is
// a free-list buffer; the handler that receives the item owns it.
type bodyItem struct {
	data []byte
	end  bool
}

func (it bodyItem) buf() []byte { return it.data }

// handleConn requires the client hello on the first line and serves the
// connection to completion: one reader (this goroutine), one writer, and
// a handler goroutine per in-flight request.
func (s *Server) handleConn(nc net.Conn) {
	c := &srvConn{
		srv:        s,
		nc:         nc,
		br:         bufio.NewReaderSize(nc, ConnBufSize),
		out:        make(chan outFrame, outQueueDepth),
		dead:       make(chan struct{}),
		writerDone: make(chan struct{}),
		fds:        newFDSender(nc),
		inFlight:   make(map[uint32]*inReq),
		rejected:   make(map[uint32]bool),
	}
	if !s.register(c) {
		nc.Close()
		return
	}
	defer s.unregister(c)
	// Once the reader and every handler are done, nothing queues behind
	// a writer that is gone.
	defer giveBack(c.out, outFrame.buf)
	defer c.handlers.Wait()
	defer c.close()

	// The writer runs from the start so a drain can close a connection
	// that has not said hello yet.
	go c.writer()

	nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	line, err := readLine(c.br, maxRequestLine)
	if err != nil {
		return
	}
	if hello := strings.TrimRight(HelloLine, "\n"); strings.TrimRight(line, "\r\n") != hello {
		// Not a frame: a peer that did not say hello cannot parse one.
		s.c.protocolErrors.Add(1)
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		fmt.Fprintf(nc, "ERR server: protocol %s required: the first line must be the hello\n", hello)
		return
	}
	c.serve()
}

// close is the forced teardown: it unblocks every goroutine touching
// the connection (reader, writer, handlers waiting on body frames or
// the out queue) and lets in-flight PUT handlers abort their staging
// temps. Idempotent.
func (c *srvConn) close() {
	c.once.Do(func() {
		close(c.dead)
		c.nc.Close()
	})
}

// beginDrain moves the connection into drain mode: in-flight requests
// run to completion, new requests are refused, and the connection
// closes once idle (immediately, if it already is).
func (c *srvConn) beginDrain() {
	c.mu.Lock()
	c.draining = true
	idle := len(c.inFlight) == 0 && c.pendingResp == 0
	c.mu.Unlock()
	if idle {
		c.queueClose()
	}
}

// queueClose enqueues the graceful-close sentinel: the writer flushes
// everything queued before it, then closes the connection.
func (c *srvConn) queueClose() {
	c.sendFrame(outFrame{last: true})
}

// sendFrame queues one frame toward the client, giving up if the
// connection is being torn down.
func (c *srvConn) sendFrame(f outFrame) bool {
	select {
	case c.out <- f:
		return true
	case <-c.dead:
		return false
	}
}

// sendData queues buf, a free-list buffer, as one body data frame of
// request id. Ownership passes to the writer; if the connection is gone
// the buffer is returned here.
func (c *srvConn) sendData(id uint32, buf []byte) bool {
	n := len(buf)
	if !c.sendFrame(outFrame{typ: FrameData, reqID: id, payload: buf}) {
		FrameBufs.Put(buf)
		return false
	}
	c.srv.c.bytesOut.Add(int64(n))
	return true
}

// writer is the single goroutine writing the connection: it serializes
// frames from every handler, applies the write deadline, and keeps the
// read deadline pushed forward while it is making progress (a connection
// busy streaming a long GET must not be reaped as idle). Control frames
// collect in a small buffer flushed when the queue momentarily empties;
// a data frame goes out as one vectored write of header and payload,
// after a flush so frames stay in queue order, and its buffer returns to
// the free list. A descriptor frame goes out as its header, then sendFD.
func (c *srvConn) writer() {
	defer close(c.writerDone)
	bw := bufio.NewWriterSize(c.nc, ConnBufSize)
	for {
		select {
		case f := <-c.out:
			c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			if f.last {
				bw.Flush()
				c.close()
				return
			}
			var err error
			if f.get != nil {
				err = c.sendFD(bw, f)
				if f.off+int64(f.n) == f.get.size {
					close(f.get.done)
				}
			} else if f.typ == FrameData {
				if err = bw.Flush(); err == nil {
					err = WriteFrame(c.nc, f.typ, f.reqID, f.payload)
				}
				FrameBufs.Put(f.payload)
			} else {
				err = WriteFrame(bw, f.typ, f.reqID, f.payload)
			}
			if err == nil && len(c.out) == 0 {
				if err = bw.Flush(); err == nil {
					c.bumpReadDeadline()
				}
			}
			if err != nil {
				c.close()
				return
			}
		case <-c.dead:
			return
		}
	}
}

// sendFD sends descriptor frame f: its header, flushed with what bw
// holds, then its body by descriptor. A file no longer sendable so
// (another handle wrote it, which crfsd never does) or a short send fails
// the connection, so the client never takes wrong bytes for the file's.
func (c *srvConn) sendFD(bw *bufio.Writer, f outFrame) error {
	var hdr [HeaderLen]byte
	PutHeader(hdr[:], Header{Type: FrameData, ReqID: f.reqID, Len: uint32(f.n)})
	bw.Write(hdr[:])
	if err := bw.Flush(); err != nil {
		return err
	}
	c.fds.off, c.fds.left = f.off, f.n
	if ok, err := f.get.ReadFD(f.off, int64(f.n), c.fds.send); !ok || err != nil {
		return cmp.Or(err, io.ErrShortWrite)
	}
	f.get.sent++
	return nil
}

// readWindow returns how long the reader may wait for the next frame:
// the (short) ReadTimeout while a request body is owed, the (long)
// idleTimeout otherwise.
func (c *srvConn) readWindow() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expectBody > 0 {
		return c.srv.cfg.ReadTimeout
	}
	return idleTimeout
}

func (c *srvConn) bumpReadDeadline() {
	c.nc.SetReadDeadline(time.Now().Add(c.readWindow()))
}

// serve answers the hello and runs the read loop.
func (c *srvConn) serve() {
	// trace=1 advertises the TRACE verb and the optional trailing
	// "T=<id>" verb-line field; older clients ignore unknown hello
	// fields, older servers never emit it, so both directions degrade.
	hello := fmt.Sprintf("crfsd/2 maxinflight=%d maxframe=%d trace=1",
		maxInFlight, MaxFramePayload)
	if !c.sendFrame(outFrame{typ: FrameHello, payload: []byte(hello)}) {
		return
	}
	for {
		c.bumpReadDeadline()
		hdr, payload, err := ReadFrameBuf(c.br)
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				c.fatal(err.Error())
			}
			return
		}
		if !c.dispatch(hdr, payload) {
			return
		}
	}
}

// fatal reports a connection-level protocol violation and closes after
// flushing the report.
func (c *srvConn) fatal(msg string) {
	c.srv.c.protocolErrors.Add(1)
	c.sendFrame(outFrame{typ: FrameErr, payload: []byte(msg)})
	c.queueClose()
}

// dispatch routes one incoming frame, whose payload buffer it owns: a
// data frame's buffer is handed on to routeBody, every other frame's is
// returned here. false tears the connection down.
func (c *srvConn) dispatch(hdr Header, payload []byte) bool {
	if hdr.Type == FrameData && len(payload) > 0 {
		return c.routeBody(hdr.ReqID, payload, false)
	}
	defer FrameBufs.Put(payload)
	switch hdr.Type {
	case FrameReq:
		return c.handleReq(hdr.ReqID, string(payload))
	case FrameData:
		c.fatal("server: empty data frame")
		return false
	case FrameEnd:
		if hdr.Len != 0 {
			c.fatal("server: end frame with payload")
			return false
		}
		return c.routeBody(hdr.ReqID, nil, true)
	default:
		c.fatal(fmt.Sprintf("server: unexpected frame type %#x from client", hdr.Type))
		return false
	}
}

// handleReq admits (or refuses) one request and spawns its handler.
func (c *srvConn) handleReq(id uint32, line string) bool {
	if id == 0 {
		c.fatal("server: request id 0 is reserved")
		return false
	}
	req, perr := ParseRequest(line)
	c.mu.Lock()
	if _, dup := c.inFlight[id]; dup || c.rejected[id] {
		c.mu.Unlock()
		c.fatal(fmt.Sprintf("server: request id %d already in flight", id))
		return false
	}
	var reject error
	switch {
	case perr != nil:
		reject = perr
	case c.draining:
		reject = fmt.Errorf("server: draining: %w", vfs.ErrClosed)
	case len(c.inFlight) >= maxInFlight:
		c.srv.c.inFlightCapped.Add(1)
		reject = fmt.Errorf("server: in-flight cap %d exceeded: %w", maxInFlight, vfs.ErrInvalid)
	case req.Verb == "PUT" && c.srv.cfg.MaxPutBytes > 0 && req.Size > c.srv.cfg.MaxPutBytes:
		reject = fmt.Errorf("server: PUT size %d exceeds cap %d: %w", req.Size, c.srv.cfg.MaxPutBytes, vfs.ErrInvalid)
	}
	if reject != nil {
		// A refused PUT still has a body on the wire: remember the id so
		// its data frames are drained and discarded rather than fataled.
		// The raw verb is checked, not the parsed request, so even an
		// unparseable PUT line (bad size, a name with a space) gets its
		// streamed body drained instead of fataling the session.
		if f := strings.Fields(line); len(f) > 0 && f[0] == "PUT" {
			if len(c.rejected) >= maxRejectedIDs {
				c.mu.Unlock()
				c.fatal("server: too many rejected requests with pending bodies")
				return false
			}
			c.rejected[id] = true
		}
		c.mu.Unlock()
		c.srv.c.requestErrors.Add(1)
		return c.sendFrame(outFrame{typ: FrameErr, reqID: id, payload: []byte(reject.Error())})
	}
	r := &inReq{expectBody: req.Verb == "PUT"}
	if r.expectBody {
		r.body = make(chan bodyItem, bodyQueueDepth)
		r.abort = make(chan struct{})
		c.expectBody++
	}
	c.inFlight[id] = r
	c.mu.Unlock()
	c.srv.c.requests.Add(1)
	c.handlers.Add(1)
	go func() {
		defer c.handlers.Done()
		c.run(id, req, r)
	}()
	return true
}

// routeBody delivers a data/end frame to its request handler, applying
// backpressure: a full body queue blocks the reader (and therefore the
// TCP window) until the handler catches up. It owns data, a free-list
// buffer: delivery hands it to the handler, every other exit returns it.
func (c *srvConn) routeBody(id uint32, data []byte, end bool) bool {
	c.mu.Lock()
	r, ok := c.inFlight[id]
	if !ok {
		drained := c.rejected[id]
		if drained && end {
			delete(c.rejected, id)
		}
		c.mu.Unlock()
		FrameBufs.Put(data)
		if !drained {
			c.fatal(fmt.Sprintf("server: body frame for unknown request %d", id))
		}
		return drained
	}
	if !r.expectBody || r.bodyDone {
		c.mu.Unlock()
		FrameBufs.Put(data)
		c.fatal(fmt.Sprintf("server: unexpected body frame for request %d", id))
		return false
	}
	if end {
		r.bodyDone = true
		c.expectBody--
	}
	c.mu.Unlock()
	c.srv.c.bytesIn.Add(int64(len(data)))
	select {
	case r.body <- bodyItem{data: data, end: end}:
		select {
		case <-r.abort:
			// The handler retired the request while the frame was on its
			// way, and complete may have emptied the queue before it
			// landed.
			giveBack(r.body, bodyItem.buf)
		default:
		}
		return true
	case <-r.abort:
		// The handler retired this request before the body finished;
		// complete() registered the id for draining, so drop the frame.
		FrameBufs.Put(data)
		return true
	case <-c.dead:
		FrameBufs.Put(data)
		return false
	}
}

// giveBack returns the buffers of the frames left in q once nobody
// takes from it any more.
func giveBack[T any](q chan T, buf func(T) []byte) {
	for {
		select {
		case f := <-q:
			FrameBufs.Put(buf(f))
		default:
			return
		}
	}
}

// complete finishes a request: it retires the routing state, queues the
// response frame, and — when the connection is draining — closes once
// the last response is out.
func (c *srvConn) complete(id uint32, typ uint8, payload []byte) {
	c.mu.Lock()
	r := c.inFlight[id]
	delete(c.inFlight, id)
	if r != nil && r.body != nil {
		if !r.bodyDone {
			// The handler gave up before the body finished (e.g. an early
			// write error): drain the remaining frames into the void. The
			// id is registered unconditionally — the rejected cap guards
			// against clients streaming bodies for refused requests, not
			// against requests the server itself admitted and aborted.
			c.expectBody--
			r.bodyDone = true
			c.rejected[id] = true
		}
		// Unblock a reader stuck delivering a body frame to a handler
		// that is no longer listening (the body queue may be full).
		close(r.abort)
	}
	c.pendingResp++
	c.mu.Unlock()
	if r != nil && r.body != nil {
		giveBack(r.body, bodyItem.buf)
	}
	if typ == FrameErr {
		c.srv.c.requestErrors.Add(1)
	}
	c.sendFrame(outFrame{typ: typ, reqID: id, payload: payload})
	c.mu.Lock()
	c.pendingResp--
	idle := len(c.inFlight) == 0 && c.pendingResp == 0
	last := c.draining && idle
	c.mu.Unlock()
	if last {
		c.queueClose()
		return
	}
	if idle {
		c.bumpReadDeadline()
	}
}

// run executes one request. When tracing is on, the request gets a
// span joined to the client's trace (the propagated T= field), so one
// striped restore stitches client and daemon timelines together.
func (c *srvConn) run(id uint32, req Request, r *inReq) {
	var sp obs.Span
	if tr := c.srv.tracer; tr.Enabled() && req.Verb != "TRACE" {
		sp = tr.StartRemote("crfsd."+req.Verb, obs.TraceID(req.Trace))
		if req.Name != "" {
			sp.Attr("name", req.Name)
		}
		defer sp.End()
	}
	switch req.Verb {
	case "PING":
		c.complete(id, FrameEnd, []byte("OK crfsd/2"))
	case "STAT":
		c.complete(id, FrameEnd, []byte(statLine(c.srv)))
	case "SCRUB":
		line, err := scrubLine(c.srv)
		if err != nil {
			c.complete(id, FrameErr, []byte(err.Error()))
			return
		}
		c.complete(id, FrameEnd, []byte(line))
	case "TRACE":
		c.runTrace(id, req)
	case "LIST":
		c.runList(id)
	case "DEL":
		// Idempotent: deleting a name that is already gone succeeds, so
		// distributed cleanup (stripe delete, stray GC) can retry and race
		// freely.
		if err := c.srv.tree.Delete(req.Name); err != nil {
			c.complete(id, FrameErr, []byte(err.Error()))
			return
		}
		c.complete(id, FrameEnd, []byte("OK"))
	case "GET":
		t0 := time.Now()
		c.runGet(id, req.Name, &sp)
		c.srv.getSeconds.Observe(int64(time.Since(t0)))
	case "PUT":
		t0 := time.Now()
		c.runPut(id, req, r, sp.Context())
		c.srv.putSeconds.Observe(int64(time.Since(t0)))
	}
}

// runTrace streams the daemon's span ring — optionally filtered to one
// trace ID — as a JSON records body (obs.MarshalRecords format), closed
// by an "OK <count>" end frame. The dump is records, not chrome events:
// the collector (crfscp -trace) merges rings from every node before the
// final chrome conversion.
func (c *srvConn) runTrace(id uint32, req Request) {
	var recs []obs.SpanRecord
	if req.Trace != 0 {
		recs = c.srv.tracer.TraceSpans(obs.TraceID(req.Trace))
	} else {
		recs = c.srv.tracer.Snapshot()
	}
	body, err := obs.MarshalRecords(recs)
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	for off := 0; off < len(body); off += DataChunk {
		buf := FrameBufs.Get(min(DataChunk, len(body)-off))
		copy(buf, body[off:])
		if !c.sendData(id, buf) {
			return
		}
	}
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", len(recs))))
}

// runList streams the store's object names (staging temps excluded),
// newline-terminated, as data frames closed by an "OK <count>" end frame.
func (c *srvConn) runList(id uint32) {
	names, err := c.srv.tree.List()
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	// The writer owns a payload once it is queued, so each frame is
	// filled in its own free-list buffer.
	var buf []byte
	for _, n := range names {
		if len(buf)+len(n)+1 > DataChunk {
			if !c.sendData(id, buf) {
				return
			}
			buf = nil
		}
		if buf == nil {
			buf = FrameBufs.Get(DataChunk)[:0]
		}
		buf = append(buf, n...)
		buf = append(buf, '\n')
	}
	if buf != nil && !c.sendData(id, buf) {
		return
	}
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", len(names))))
}

// runGet streams a file as data frames. Any failure — before the first
// byte or mid-stream — is an error frame, never bytes on the body
// stream, so the client can never mistake error text for file content.
// A file that can be sent by descriptor, on a connection that can, goes
// out in descriptor frames (sp's fd_frames counts those sent), and is
// closed only once the writer is done with them.
func (c *srvConn) runGet(id uint32, name string, sp *obs.Span) {
	f, err := c.srv.fs.Open(name, vfs.ReadOnly)
	if errors.Is(err, vfs.ErrNotExist) {
		// Absence is said in vfs.ErrNotExist's words, which the client
		// types back, whatever words the backend used.
		err = fmt.Errorf("server: GET %s: %w", name, vfs.ErrNotExist)
	}
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	defer f.Close()
	vfs.SetSpanContext(f, sp.Context())
	info, err := f.Stat()
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	size := info.Size
	var g *fdGet
	if fd, ok := f.(vfs.FDReader); ok && c.fds != nil && size > 0 {
		if ok, _ := fd.ReadFD(0, min(size, DataChunk), nil); ok {
			g = &fdGet{FDReader: fd, size: size, done: make(chan struct{})}
		}
	}
	defer func() {
		sent := 0
		if g != nil {
			select {
			case <-g.done:
			case <-c.writerDone:
			}
			sent = g.sent
		}
		sp.AttrInt("fd_frames", int64(sent))
	}()
	var off int64
	for off < size {
		want := min(size-off, DataChunk)
		if g != nil {
			if !c.sendFrame(outFrame{typ: FrameData, reqID: id, get: g, off: off, n: int(want)}) {
				return
			}
			c.srv.c.bytesOut.Add(want)
			off += want
			continue
		}
		buf := FrameBufs.Get(int(want))
		n, rerr := f.ReadAt(buf, off)
		if n == 0 {
			FrameBufs.Put(buf)
		} else if !c.sendData(id, buf[:n]) {
			return
		}
		off += int64(n)
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			c.complete(id, FrameErr, []byte(rerr.Error()))
			return
		}
		if n == 0 {
			// A short read below the promised size must fail loudly, not
			// silently truncate the response.
			c.complete(id, FrameErr, []byte(fmt.Sprintf(
				"server: GET %s: short read at %d of %d", name, off, size)))
			return
		}
	}
	c.srv.c.getsServed.Add(1)
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", size)))
}

// runPut streams the request body into name through the mount's Put,
// which stages it in a temp and commits it under name only once the
// whole body is on stable storage.
func (c *srvConn) runPut(id uint32, req Request, r *inReq, ctx obs.SpanContext) {
	body := &putBody{c: c, r: r, name: req.Name, size: req.Size}
	if err := c.srv.tree.PutTraced(req.Name, body, req.Size, ctx); err != nil {
		c.srv.c.putsAborted.Add(1)
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	c.srv.c.putsCommitted.Add(1)
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", req.Size)))
}

// putBody is a PUT's body as its data frames arrive. WriteTo hands each
// frame's free-list buffer to the writer as it is and gives it back once
// written or refused; a body longer than its declared size is refused
// before any of the excess is written.
type putBody struct {
	c    *srvConn
	r    *inReq
	name string
	size int64
}

// Read is never called: io.Copy takes a putBody through WriteTo.
func (b *putBody) Read([]byte) (int, error) { return 0, errors.ErrUnsupported }

func (b *putBody) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for {
		var buf []byte
		select {
		case item := <-b.r.body:
			if item.end {
				return n, nil
			}
			buf = item.data
		case <-b.c.dead:
			return n, fmt.Errorf("server: connection lost mid-PUT: %w", net.ErrClosed)
		}
		if n+int64(len(buf)) > b.size {
			FrameBufs.Put(buf)
			return n, fmt.Errorf("server: PUT %s: body exceeds declared size %d: %w", b.name, b.size, ErrProtocol)
		}
		wn, err := w.Write(buf)
		FrameBufs.Put(buf)
		n += int64(wn)
		if err != nil {
			return n, fmt.Errorf("server: PUT %s: %w", b.name, err)
		}
	}
}

// statLine renders the one-line STAT response from the same metrics
// registry that backs the Prometheus exposition: the entries tagged
// WithStat in Metrics().
func statLine(s *Server) string {
	return metrics.StatLine(s.Metrics())
}

// scrubLine runs the offline scrub engine over the mount's backend and
// renders its one-line summary. The daemon writes only into temps, which
// the walk skips, so every container it verifies is committed and never
// appended to; one a GET holds open is judged by its bytes all the same.
func scrubLine(s *Server) (string, error) {
	rep, err := compact.Scrub(s.fs.Backend(), ".", compact.ScrubOptions{Workers: s.fs.Options().IOThreads})
	s.c.framesVerified.Add(rep.Frames)
	s.c.scrubCorruptions.Add(rep.CorruptFrames)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("OK containers=%d frames=%d bytes=%d corrupt_frames=%d torn=%d clean=%v",
		rep.Containers, rep.Frames, rep.Bytes, rep.CorruptFrames, rep.TornContainers, rep.Clean()), nil
}

// readLine reads one newline-terminated line of at most max bytes.
func readLine(br *bufio.Reader, max int) (string, error) {
	var sb strings.Builder
	for sb.Len() < max {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		sb.WriteByte(b)
		if b == '\n' {
			return sb.String(), nil
		}
	}
	return "", fmt.Errorf("server: request line exceeds %d bytes: %w", max, ErrProtocol)
}
