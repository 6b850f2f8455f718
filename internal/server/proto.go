// Package server implements crfsd's network face: the protocol-v2
// framed, multiplexed checkpoint transfer protocol, served over
// persistent TCP connections against a CRFS mount.
//
// # Protocol v2
//
// A v2 session begins with the client hello line "CRFS/2\n". The server
// answers with a hello frame advertising its limits, and from then on
// both directions carry binary frames:
//
//	offset 0  u8  type   (hello/req/data/end/err)
//	offset 1  u8  flags  (must be 0)
//	offset 2  u16 reserved (must be 0)
//	offset 4  u32 request id (big-endian; 0 is the connection itself)
//	offset 8  u32 payload length (big-endian, <= MaxFramePayload)
//	offset 12 payload bytes
//
// A request is a req frame whose payload is a verb line — "PUT name
// size", "GET name", "DEL name", "LIST", "STAT", "SCRUB", "PING" —
// under a client-chosen
// request id that must not collide with one still in flight. A PUT body
// is streamed as data frames tagged with the request id, closed by an
// empty end frame; the server commits the staged file and answers with
// an end frame carrying "OK <bytes>". A GET answer is data frames
// followed by an end frame "OK <bytes>"; a failure at any point — before
// or after body bytes have been sent — is an err frame carrying the
// error text, so error text can never be parsed as file bytes (the
// protocol-v1 GET bug this format exists to fix). Requests on one
// connection are handled concurrently up to the server's advertised
// in-flight cap.
//
// Anything else on the first line is refused: the server answers one
// "ERR ...\n" line naming the required protocol and closes the
// connection.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"unicode"

	"crfs/internal/freelist"
	"crfs/internal/vfs"
)

// HelloLine is the protocol-v2 client hello, sent as the first bytes of
// a connection (newline included).
const HelloLine = "CRFS/2\n"

// Frame types.
const (
	// FrameHello is the server's connection greeting: request id 0,
	// payload "crfsd/2 maxinflight=<n> maxframe=<n>".
	FrameHello = 0x01
	// FrameReq opens a request: payload is the verb line.
	FrameReq = 0x02
	// FrameData carries body bytes of a streaming PUT (client to
	// server) or GET (server to client).
	FrameData = 0x03
	// FrameEnd closes a body (empty payload, client side) or completes
	// a request successfully (server side, payload "OK ...").
	FrameEnd = 0x04
	// FrameErr fails the tagged request with the payload as error text;
	// with request id 0 it reports a fatal connection-level error and
	// the connection closes after it.
	FrameErr = 0x05
)

// Wire limits.
const (
	// HeaderLen is the fixed frame header size.
	HeaderLen = 12
	// MaxFramePayload bounds one frame's payload; larger data is split
	// across frames. The bound keeps per-request buffering small, so a
	// connection's memory cost is capped no matter the declared sizes.
	MaxFramePayload = 1 << 20
	// DataChunk is the payload size senders use for body data frames,
	// and the size of every buffer on the frame free list. Receivers
	// accept any size up to MaxFramePayload, so it is not part of the
	// protocol: peers built with another value interoperate.
	DataChunk = 256 << 10
	// ConnBufSize sizes the bufio buffers both ends put on a connection.
	// Small on purpose: they serve headers, verb lines and control
	// frames; a data payload larger than the buffer is read past it,
	// straight into its free-list buffer (ReadFrameBuf), and written past
	// it (WriteFrame on the connection).
	ConnBufSize = 4 << 10
)

// FrameBufs is the frame free list. One body byte crosses client, wire
// and daemon in buffers from it, handed off by ownership, and every
// holder gives back what it holds, on abort and teardown paths too. It
// is process-wide: both ends of a loopback pair and every connection of
// a daemon draw on one working set. It keeps 64 idle (16 MiB); a dozen
// concurrent chunk transfers hold up to 36.
var FrameBufs = freelist.New(DataChunk, 64)

// ErrProtocol reports a violation of the frame format itself (bad
// header, oversized payload, data for an unknown request): the
// connection is no longer in a known state and is closed.
var ErrProtocol = errors.New("protocol error")

// Header is a decoded frame header.
type Header struct {
	Type  uint8
	ReqID uint32
	Len   uint32
}

// PutHeader encodes h into buf, which must be at least HeaderLen bytes.
func PutHeader(buf []byte, h Header) {
	buf[0] = h.Type
	buf[1] = 0
	binary.BigEndian.PutUint16(buf[2:], 0)
	binary.BigEndian.PutUint32(buf[4:], h.ReqID)
	binary.BigEndian.PutUint32(buf[8:], h.Len)
}

// ParseFrameHeader decodes and validates a frame header.
func ParseFrameHeader(buf []byte) (Header, error) {
	h := Header{
		Type:  buf[0],
		ReqID: binary.BigEndian.Uint32(buf[4:]),
		Len:   binary.BigEndian.Uint32(buf[8:]),
	}
	if h.Type < FrameHello || h.Type > FrameErr {
		return h, fmt.Errorf("server: unknown frame type %#x: %w", h.Type, ErrProtocol)
	}
	if buf[1] != 0 || binary.BigEndian.Uint16(buf[2:]) != 0 {
		return h, fmt.Errorf("server: nonzero reserved frame bytes: %w", ErrProtocol)
	}
	if h.Len > MaxFramePayload {
		return h, fmt.Errorf("server: frame payload %d exceeds cap %d: %w", h.Len, MaxFramePayload, ErrProtocol)
	}
	return h, nil
}

// WriteFrame writes one frame (header + payload) to w as one vectored
// write: a single writev when w is a TCP or Unix connection, the header
// and the payload one after the other on any other writer. The payload
// is not retained.
func WriteFrame(w io.Writer, typ uint8, reqID uint32, payload []byte) error {
	var hdr [HeaderLen]byte
	PutHeader(hdr[:], Header{Type: typ, ReqID: reqID, Len: uint32(len(payload))})
	bufs := net.Buffers{hdr[:], payload}
	if len(payload) == 0 {
		bufs = bufs[:1]
	}
	_, err := bufs.WriteTo(w)
	return err
}

// readHeader reads and validates one frame header.
func readHeader(r io.Reader) (Header, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Header{}, err
	}
	return ParseFrameHeader(hdr[:])
}

// ReadPayload reads a frame's len(p) payload bytes from r. Its header
// promised them, so a stream that ends before the first of them is as
// truncated as one that ends inside them: both are io.ErrUnexpectedEOF,
// never the io.EOF that would read as a clean end.
func ReadPayload(r io.Reader, p []byte) error {
	if _, err := io.ReadFull(r, p); err != io.EOF {
		return err
	}
	return io.ErrUnexpectedEOF
}

// ReadFrame reads one frame from r into a payload of its own.
func ReadFrame(r io.Reader) (Header, []byte, error) {
	h, err := readHeader(r)
	if err != nil {
		return h, nil, err
	}
	buf := make([]byte, h.Len)
	if err := ReadPayload(r, buf); err != nil {
		return h, nil, fmt.Errorf("server: short frame payload: %w", err)
	}
	return h, buf, nil
}

// ReadFrameBuf reads one frame from r into a buffer from the free list.
// The caller owns the returned payload: it hands it on or returns it with
// FrameBufs.Put, and the next ReadFrameBuf never reuses it. When r is a
// bufio.Reader smaller than the payload, all but the payload's first and
// last few KiB are read from the connection straight into the buffer.
func ReadFrameBuf(r io.Reader) (Header, []byte, error) {
	h, err := readHeader(r)
	if err != nil {
		return h, nil, err
	}
	buf := FrameBufs.Get(int(h.Len))
	if err := ReadPayload(r, buf); err != nil {
		FrameBufs.Put(buf)
		return h, nil, fmt.Errorf("server: short frame payload: %w", err)
	}
	return h, buf, nil
}

// Request is a parsed verb line.
type Request struct {
	Verb  string // "PUT", "GET", "DEL", "LIST", "STAT", "SCRUB", "PING", "TRACE"
	Name  string // PUT/GET/DEL target
	Size  int64  // PUT declared body size
	Trace uint64 // propagated trace ID (optional trailing "T=<16 hex>" field)
}

// TraceField renders the optional trailing verb-line field that
// propagates a trace ID ("T=<16 hex>"). Servers that predate tracing
// reject lines carrying it, so clients append it only after the server
// hello advertised "trace=1".
func TraceField(id uint64) string {
	return fmt.Sprintf("T=%016x", id)
}

// ParseRequest parses and validates a verb line.
func ParseRequest(line string) (Request, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	var req Request
	// An optional trailing "T=<16 hex>" field on any verb propagates the
	// client's trace ID; it is peeled off before verb arity checks so
	// every verb accepts it uniformly.
	if n := len(fields); n > 0 {
		if hex, ok := strings.CutPrefix(fields[n-1], "T="); ok {
			id, err := strconv.ParseUint(hex, 16, 64)
			if err != nil || len(hex) != 16 {
				return Request{}, fmt.Errorf("server: bad trace field %q: %w", fields[n-1], vfs.ErrInvalid)
			}
			req.Trace = id
			fields = fields[:n-1]
		}
	}
	if len(fields) == 0 {
		return Request{}, fmt.Errorf("server: empty request: %w", vfs.ErrInvalid)
	}
	req.Verb = fields[0]
	switch req.Verb {
	case "PUT":
		if len(fields) != 3 {
			return Request{}, fmt.Errorf("server: usage: PUT name size: %w", vfs.ErrInvalid)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || size < 0 {
			return Request{}, fmt.Errorf("server: bad PUT size %q: %w", fields[2], vfs.ErrInvalid)
		}
		req.Name, req.Size = fields[1], size
	case "GET", "DEL":
		if len(fields) != 2 {
			return Request{}, fmt.Errorf("server: usage: %s name: %w", req.Verb, vfs.ErrInvalid)
		}
		req.Name = fields[1]
	case "LIST", "STAT", "SCRUB", "PING":
		if len(fields) != 1 {
			return Request{}, fmt.Errorf("server: %s takes no arguments: %w", req.Verb, vfs.ErrInvalid)
		}
	case "TRACE":
		// TRACE [traceid-hex]: stream the daemon's span ring (optionally
		// filtered to one trace) as a JSON records body.
		switch len(fields) {
		case 1:
		case 2:
			id, err := strconv.ParseUint(fields[1], 16, 64)
			if err != nil || id == 0 {
				return Request{}, fmt.Errorf("server: bad TRACE id %q: %w", fields[1], vfs.ErrInvalid)
			}
			req.Trace = id
		default:
			return Request{}, fmt.Errorf("server: usage: TRACE [traceid]: %w", vfs.ErrInvalid)
		}
	default:
		return Request{}, fmt.Errorf("server: unknown verb %q: %w", req.Verb, vfs.ErrInvalid)
	}
	if req.Name != "" {
		if err := ValidateName(req.Name); err != nil {
			return Request{}, err
		}
	}
	return req, nil
}

// ValidateName rejects transfer names the store must not accept: names
// that escape the backing directory, are not in canonical (clean) form,
// or name a temp (vfs.IsTemp), which sweeps would remove.
func ValidateName(name string) error {
	if name == "" || name == "." {
		return fmt.Errorf("server: empty name: %w", vfs.ErrInvalid)
	}
	if vfs.Clean(name) != name || strings.HasPrefix(name, "/") ||
		name == ".." || strings.HasPrefix(name, "../") {
		return fmt.Errorf("server: non-canonical name %q: %w", name, vfs.ErrInvalid)
	}
	for _, r := range name {
		// Whitespace can never round-trip the space-separated verb line,
		// so it is rejected here — which also lets the client refuse such
		// a name before putting anything on the wire.
		if r < 0x20 || r == 0x7f || unicode.IsSpace(r) {
			return fmt.Errorf("server: whitespace or control character in name: %w", vfs.ErrInvalid)
		}
	}
	if vfs.IsTemp(name) {
		return fmt.Errorf("server: name %q collides with the temp namespace: %w", name, vfs.ErrInvalid)
	}
	return nil
}
