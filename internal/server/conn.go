package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"crfs/internal/core"
	"crfs/internal/metrics"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// maxRequestLine bounds the first line of a connection: the hello is
// seven bytes, so anything longer is garbage.
const maxRequestLine = 4096

// Queue depths, in frames. Together with the in-flight cap they bound the
// frame buffers one connection can hold (DESIGN.md, "crfsd protocol v2"):
// MaxInFlight × bodyQueueDepth inbound plus outQueueDepth outbound, each
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

	out  chan outFrame
	dead chan struct{} // closed on teardown; unblocks every sender/receiver
	once sync.Once

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
// everything written so far, then close.
type outFrame struct {
	typ     uint8
	reqID   uint32
	payload []byte
	last    bool
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

// handleConn requires the client hello on the first line and serves the
// connection to completion: one reader (this goroutine), one writer, and
// a handler goroutine per in-flight request.
func (s *Server) handleConn(nc net.Conn) {
	c := &srvConn{
		srv:      s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, ConnBufSize),
		out:      make(chan outFrame, outQueueDepth),
		dead:     make(chan struct{}),
		inFlight: make(map[uint32]*inReq),
		rejected: make(map[uint32]bool),
	}
	if !s.register(c) {
		nc.Close()
		return
	}
	defer s.unregister(c)
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
		PutFrameBuf(buf)
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
// the free list.
func (c *srvConn) writer() {
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
			if f.typ == FrameData {
				if err = bw.Flush(); err == nil {
					err = WriteFrame(c.nc, f.typ, f.reqID, f.payload)
				}
				PutFrameBuf(f.payload)
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
		c.srv.cfg.MaxInFlight, MaxFramePayload)
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
	defer PutFrameBuf(payload)
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
	case len(c.inFlight) >= c.srv.cfg.MaxInFlight:
		c.srv.c.inFlightCapped.Add(1)
		reject = fmt.Errorf("server: in-flight cap %d exceeded: %w", c.srv.cfg.MaxInFlight, vfs.ErrInvalid)
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
		PutFrameBuf(data)
		if !drained {
			c.fatal(fmt.Sprintf("server: body frame for unknown request %d", id))
		}
		return drained
	}
	if !r.expectBody || r.bodyDone {
		c.mu.Unlock()
		PutFrameBuf(data)
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
		return true
	case <-r.abort:
		// The handler retired this request before the body finished;
		// complete() registered the id for draining, so drop the frame.
		PutFrameBuf(data)
		return true
	case <-c.dead:
		PutFrameBuf(data)
		return false
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
		line, err := scrubLine(c.srv.fs)
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
		if err := c.srv.fs.Remove(req.Name); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			c.complete(id, FrameErr, []byte(err.Error()))
			return
		}
		c.complete(id, FrameEnd, []byte("OK"))
	case "GET":
		t0 := time.Now()
		c.runGet(id, req.Name, sp.Context())
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
		buf := GetFrameBuf(min(DataChunk, len(body)-off))
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
	names, err := c.srv.ListNames()
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
			buf = GetFrameBuf(DataChunk)[:0]
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
func (c *srvConn) runGet(id uint32, name string, ctx obs.SpanContext) {
	f, err := c.srv.fs.Open(name, vfs.ReadOnly)
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	defer f.Close()
	setSpanContext(f, ctx)
	info, err := f.Stat()
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	size := info.Size
	var off int64
	for off < size {
		want := int64(DataChunk)
		if size-off < want {
			want = size - off
		}
		buf := GetFrameBuf(int(want))
		n, rerr := f.ReadAt(buf, off)
		if n == 0 {
			PutFrameBuf(buf)
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

// runPut streams the request body into a staging temp and commits it
// under the target name only on clean completion.
func (c *srvConn) runPut(id uint32, req Request, r *inReq, ctx obs.SpanContext) {
	src := func() ([]byte, error) {
		select {
		case item := <-r.body:
			if item.end {
				return nil, io.EOF
			}
			return item.data, nil
		case <-c.dead:
			return nil, fmt.Errorf("server: connection lost mid-PUT: %w", net.ErrClosed)
		}
	}
	n, err := c.srv.stagePut(req.Name, req.Size, src, ctx)
	if err != nil {
		c.complete(id, FrameErr, []byte(err.Error()))
		return
	}
	c.complete(id, FrameEnd, []byte(fmt.Sprintf("OK %d", n)))
}

// stagePut streams a PUT body into a staging temp and renames it over
// the target only after a clean close, so a failed or abandoned PUT
// never leaves a partial file visible under the target name. src yields
// successive body slices and io.EOF at the end of the stream; each slice
// is a free-list buffer stagePut owns and returns once it is written (or
// refused).
func (s *Server) stagePut(name string, size int64, src func() ([]byte, error), ctx obs.SpanContext) (int64, error) {
	if dir, _ := vfs.Split(name); dir != "." {
		if err := s.fs.MkdirAll(dir); err != nil {
			return 0, err
		}
	}
	temp := StagingName(name, s.seq.Add(1))
	// Register the temp as live before it exists on disk, so a periodic
	// sweep can never race this PUT and reap it mid-stream.
	defer s.trackStaging(temp)()
	f, err := s.fs.Open(temp, vfs.WriteOnly|vfs.Create|vfs.Excl)
	if err != nil {
		return 0, err
	}
	setSpanContext(f, ctx)
	abort := func(cause error) (int64, error) {
		s.c.putsAborted.Add(1)
		// The close error matters on the failure path too: it is where a
		// pending backend write failure surfaces.
		if cerr := f.Close(); cerr != nil && !errors.Is(cerr, vfs.ErrClosed) {
			cause = fmt.Errorf("%w (close: %v)", cause, cerr)
		}
		if rerr := s.fs.Remove(temp); rerr != nil {
			s.cfg.Logf("crfsd: removing staging temp %s: %v", temp, rerr)
		}
		return 0, cause
	}
	var off int64
	for {
		chunk, err := src()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return abort(err)
		}
		n := int64(len(chunk))
		if off+n > size {
			PutFrameBuf(chunk)
			return abort(fmt.Errorf("server: PUT %s: body exceeds declared size %d: %w", name, size, ErrProtocol))
		}
		_, werr := f.WriteAt(chunk, off)
		PutFrameBuf(chunk)
		if werr != nil {
			return abort(fmt.Errorf("server: PUT %s: %w", name, werr))
		}
		off += n
	}
	if off != size {
		return abort(fmt.Errorf("server: PUT %s: short body: %d of %d bytes: %w", name, off, size, vfs.ErrInvalid))
	}
	if err := f.Close(); err != nil {
		s.c.putsAborted.Add(1)
		if rerr := s.fs.Remove(temp); rerr != nil {
			s.cfg.Logf("crfsd: removing staging temp %s: %v", temp, rerr)
		}
		return 0, fmt.Errorf("server: PUT %s: %w", name, err)
	}
	if err := s.commitStaged(temp, name); err != nil {
		return 0, err
	}
	s.c.putsCommitted.Add(1)
	return off, nil
}

// commitStaged renames the staging temp over the target. A destination
// held open by a concurrent reader refuses the re-key; that is a
// transient state, so the rename is retried briefly before giving up
// and discarding the temp.
func (s *Server) commitStaged(temp, name string) error {
	var err error
	for try := 0; try < 50; try++ {
		if err = s.fs.Rename(temp, name); err == nil {
			return nil
		}
		if !errors.Is(err, core.ErrDestinationOpen) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.c.putsAborted.Add(1)
	if rerr := s.fs.Remove(temp); rerr != nil {
		s.cfg.Logf("crfsd: removing staging temp %s: %v", temp, rerr)
	}
	return fmt.Errorf("server: commit %s: %w", name, err)
}

// statLine renders the one-line STAT response from the same metrics
// registry that backs the Prometheus exposition: the entries tagged
// WithStat in Metrics().
func statLine(s *Server) string {
	return metrics.StatLine(s.Metrics())
}

// setSpanContext plants a propagated trace context on a mount file
// handle so the core pipeline's spans (write, chunk seal, encode,
// backend write, prefetch) join the client's trace. Backends whose
// handles do not trace are silently skipped.
func setSpanContext(f vfs.File, ctx obs.SpanContext) {
	if !ctx.Valid() {
		return
	}
	if t, ok := f.(interface{ SetSpanContext(obs.SpanContext) }); ok {
		t.SetSpanContext(ctx)
	}
}

// scrubLine runs a scrub pass and renders its one-line summary.
func scrubLine(fs *core.FS) (string, error) {
	rep, err := fs.Scrub()
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
