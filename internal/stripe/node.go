package stripe

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"crfs/internal/client"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// Node is one storage benefactor the coordinator stripes over: a flat
// object namespace with whole-object put/get, idempotent delete, and a
// listing. The production implementation is a crfsd daemon reached over
// protocol v2 (ClientNode); tests use in-process nodes with fault
// injection.
type Node interface {
	// ID is the node's stable identity; placement hashes it, so it must
	// not change for as long as the node holds chunks — across
	// reconnects, and across a move to another address.
	ID() string
	// Put stores size bytes from r under name. r's bytes are valid only
	// until Put returns: the coordinator hands a node a reader over the
	// caller's own body where it can, shared by the chunk's k replica
	// pushes running at once, so a node keeps nothing of r it has not
	// copied.
	Put(name string, r io.Reader, size int64) error
	Get(name string, w io.Writer) (int64, error)
	Delete(name string) error
	List() ([]string, error)
	Close() error
}

// ErrNotExist reports a missing object on a node, normalized across
// node implementations so the coordinator can tell absence (repairable)
// from transport failure (node unreachable).
var ErrNotExist = errors.New("stripe: object does not exist")

// ClientNode is a Node backed by a crfsd daemon over protocol v2. The
// underlying client redials and retries idempotent requests, so a
// bounced daemon looks like a slow request, not a dead node.
type ClientNode struct {
	id   string
	addr string
	c    *client.Client
}

// DialNode connects to a crfsd daemon as a stripe node whose identity is
// its address. redials bounds automatic reconnects for the node's
// lifetime (see client.Config).
func DialNode(addr string, redials int) (*ClientNode, error) {
	return DialNodeID(addr, addr, redials)
}

// DialNodeID is DialNode with an identity of the caller's choosing.
// Placement hashes the ID, not the address, so a daemon given a fixed ID
// keeps its chunks when it comes back on another host or port.
func DialNodeID(id, addr string, redials int) (*ClientNode, error) {
	c, err := client.Dial(addr, client.Config{Redials: redials})
	if err != nil {
		return nil, fmt.Errorf("stripe: node %s: %w", addr, err)
	}
	return &ClientNode{id: id, addr: addr, c: c}, nil
}

func (n *ClientNode) ID() string { return n.id }

func (n *ClientNode) Put(name string, r io.Reader, size int64) error {
	return n.PutTraced(name, r, size, obs.SpanContext{})
}

func (n *ClientNode) Get(name string, w io.Writer) (int64, error) {
	return n.GetTraced(name, w, obs.SpanContext{})
}

func (n *ClientNode) Delete(name string) error { return n.c.Delete(name) }
func (n *ClientNode) List() ([]string, error)  { return n.c.List() }
func (n *ClientNode) Close() error             { return n.c.Close() }

// PutTraced implements the optional traced-node upgrade: the chunk
// span's trace ID rides the PUT verb line to the daemon.
func (n *ClientNode) PutTraced(name string, r io.Reader, size int64, ctx obs.SpanContext) error {
	return n.c.PutTraced(name, r, size, ctx)
}

// GetTraced is the traced variant of Get (see PutTraced).
func (n *ClientNode) GetTraced(name string, w io.Writer, ctx obs.SpanContext) (int64, error) {
	nn, err := n.c.GetTraced(name, w, ctx)
	// The wire protocol carries error strings, not types; this is the
	// normalization boundary for absence.
	var re *client.RemoteError
	if errors.As(err, &re) && strings.Contains(re.Msg, "not exist") {
		return nn, fmt.Errorf("stripe: node %s: GET %s: %w", n.addr, name, ErrNotExist)
	}
	return nn, err
}

// TraceDump fetches the daemon's span ring, filtered to one trace when
// trace is nonzero.
func (n *ClientNode) TraceDump(trace obs.TraceID) ([]obs.SpanRecord, error) {
	return n.c.TraceDump(trace)
}

// tracedPutter and tracedGetter are the optional upgrades a Node may
// implement to receive trace contexts; nodes without them are served
// untraced, so MemNode and older daemons keep working unchanged.
type tracedPutter interface {
	PutTraced(name string, r io.Reader, size int64, ctx obs.SpanContext) error
}

type tracedGetter interface {
	GetTraced(name string, w io.Writer, ctx obs.SpanContext) (int64, error)
}

// nodePut writes one object to a node, propagating ctx when the node
// supports it.
func nodePut(n Node, name string, r io.Reader, size int64, ctx obs.SpanContext) error {
	if ctx.Valid() {
		if tp, ok := n.(tracedPutter); ok {
			return tp.PutTraced(name, r, size, ctx)
		}
	}
	return n.Put(name, r, size)
}

// nodeGet reads one object from a node, propagating ctx when the node
// supports it.
func nodeGet(n Node, name string, w io.Writer, ctx obs.SpanContext) (int64, error) {
	if ctx.Valid() {
		if tg, ok := n.(tracedGetter); ok {
			return tg.GetTraced(name, w, ctx)
		}
	}
	return n.Get(name, w)
}

// MemNode is an in-memory Node for tests and hermetic benchmarks, with
// fault injection: it can be taken down (every call fails as if the
// daemon were unreachable) and individual objects can be silently
// corrupted to exercise fingerprint verification and repair.
type MemNode struct {
	id string

	mu      sync.Mutex
	objects map[string][]byte
	down    bool
	// delay is charged per byte on Get, for scaling measurements.
	readDelay time.Duration
	delayUnit int64
}

// NewMemNode returns an empty in-memory node.
func NewMemNode(id string) *MemNode {
	return &MemNode{id: id, objects: make(map[string][]byte)}
}

// WithReadDelay makes every Get sleep d per unit bytes read, modelling
// a disk- or network-bound benefactor. It returns the node for chaining.
func (n *MemNode) WithReadDelay(d time.Duration, unit int64) *MemNode {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.readDelay = d
	n.delayUnit = unit
	return n
}

// SetDown makes every subsequent call fail (true) or succeed (false),
// simulating a killed or partitioned daemon.
func (n *MemNode) SetDown(down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = down
}

// Corrupt flips a byte in the stored copy of name, returning whether
// the object existed. The corruption is silent — exactly what a scrub
// fingerprint check must catch.
func (n *MemNode) Corrupt(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.objects[name]
	if !ok || len(b) == 0 {
		return ok
	}
	b[len(b)/2] ^= 0xFF
	return true
}

// Objects returns a snapshot of the node's object names, sorted.
func (n *MemNode) Objects() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.objects))
	for name := range n.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (n *MemNode) ID() string { return n.id }

func (n *MemNode) errIfDown() error {
	if n.down {
		return fmt.Errorf("stripe: node %s: connection refused: %w", n.id, vfs.ErrClosed)
	}
	return nil
}

func (n *MemNode) Put(name string, r io.Reader, size int64) error {
	// Consume the body before the fault check: a real daemon dying
	// mid-PUT still consumed the stream.
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if int64(len(data)) != size {
		return fmt.Errorf("stripe: node %s: PUT %s: body %d bytes, declared %d", n.id, name, len(data), size)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.errIfDown(); err != nil {
		return err
	}
	n.objects[name] = data
	return nil
}

func (n *MemNode) Get(name string, w io.Writer) (int64, error) {
	n.mu.Lock()
	if err := n.errIfDown(); err != nil {
		n.mu.Unlock()
		return 0, err
	}
	data, ok := n.objects[name]
	delay, unit := n.readDelay, n.delayUnit
	n.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("stripe: node %s: GET %s: %w", n.id, name, ErrNotExist)
	}
	if delay > 0 && unit > 0 {
		time.Sleep(delay * time.Duration((int64(len(data))+unit-1)/unit))
	}
	nn, err := w.Write(data)
	return int64(nn), err
}

func (n *MemNode) Delete(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.errIfDown(); err != nil {
		return err
	}
	delete(n.objects, name)
	return nil
}

func (n *MemNode) List() ([]string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.errIfDown(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(n.objects))
	for name := range n.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (n *MemNode) Close() error { return nil }
