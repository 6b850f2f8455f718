// Package obs is the CRFS observability subsystem: lightweight span
// tracing, fixed-bucket atomic histograms, and chrome://tracing export.
// It is always compiled in; the runtime cost when tracing is disabled
// is one atomic bool load per span site and zero allocation
// (TestDisabledSpanIsFree calls every fast-path method, on a disabled
// and on a nil Tracer, and fails on a single allocation).
//
// Spans form trees: a root span (Start) mints a fresh trace ID, child
// spans (StartChild) inherit it, and a span arriving from another
// process (StartRemote) joins an existing trace by ID so a striped
// restore stitches client and daemon timelines into one trace.
// Finished spans land in a fixed-capacity ring buffer; Snapshot and
// TraceSpans read it, ChromeTrace renders records as a
// chrome://tracing-loadable JSON array.
//
// Histograms are independent of tracing and always on: Observe is
// lock-free and allocation-free (a binary search over immutable bounds
// plus three atomic adds), cheap enough to leave in the hot write and
// read paths unconditionally.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one logical operation across processes. Zero means
// "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no span" (a
// root span has Parent zero).
type SpanID uint64

// SpanContext is the propagatable half of a span: enough to parent a
// child span locally or on a remote node.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a live trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// Attr is one key/value annotation on a span. Values are pre-rendered
// strings so a SpanRecord is flat and trivially serializable.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// maxAttrs bounds per-span annotations. Fixed so a Span never
// allocates; excess attrs are dropped, not grown.
const maxAttrs = 4

// SpanRecord is one finished span as stored in the ring and shipped
// over the TRACE verb. Start is wall-clock nanoseconds since the Unix
// epoch (comparable across processes), Dur is monotonic nanoseconds.
type SpanRecord struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Proc   string  `json:"proc,omitempty"`
	Start  int64   `json:"start"`
	Dur    int64   `json:"dur"`
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// Tracer owns a span ring buffer and the enabled switch. The zero
// value is usable (disabled, default capacity on first enable); New
// sets an explicit ring capacity. All methods are nil-safe so
// components can hold an optional *Tracer without guarding call sites.
type Tracer struct {
	enabled atomic.Bool
	ids     atomic.Uint64 // span/trace ID allocator, seeded once
	seeded  atomic.Bool
	slowNs  atomic.Int64

	mu          sync.Mutex
	ring        []SpanRecord
	n           int   // ring entries filled (≤ cap)
	next        int   // next write slot
	overwritten int64 // finished spans a full ring evicted
	proc        string
	logf        func(format string, args ...any)
}

// DefaultRingCapacity is the span ring size when none is configured.
const DefaultRingCapacity = 8192

// Default is the process-wide tracer. Components whose configuration
// leaves the tracer nil fall back to it. It starts disabled, so the
// fallback costs one atomic load per span site.
var Default = New(DefaultRingCapacity)

// New returns a disabled Tracer whose ring holds capacity finished
// spans (oldest evicted first).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	t := &Tracer{ring: make([]SpanRecord, capacity)}
	return t
}

// seed gives the ID allocator a process-unique starting point so span
// IDs minted on different nodes of a striped cluster do not collide
// within one merged trace. Called lazily from the first ID mint, never
// on the disabled path.
func (t *Tracer) seed() {
	if t.seeded.CompareAndSwap(false, true) {
		// Mix the wall clock into the allocator; collisions across
		// processes would need identical nanosecond starts AND identical
		// allocation counts.
		t.ids.Add(uint64(time.Now().UnixNano()) | 1)
	}
}

// Enabled reports whether spans are being recorded. Nil-safe; this is
// the one call allowed on the disabled fast path.
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// SetEnabled flips span recording. Enabling an unconfigured zero-value
// Tracer allocates the default ring.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	if on {
		t.mu.Lock()
		if t.ring == nil {
			t.ring = make([]SpanRecord, DefaultRingCapacity)
		}
		t.mu.Unlock()
	}
	t.enabled.Store(on)
}

// SetProcess names this tracer's process in exported records (e.g.
// "crfsd:127.0.0.1:9911" or "crfscp"); chrome://tracing shows it as
// the process lane.
func (t *Tracer) SetProcess(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = name
	t.mu.Unlock()
}

// SetSlowThreshold arms the slow-op log: any root span whose duration
// reaches d is logged (with its child tree) through the logf sink.
// Zero disables.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.slowNs.Store(int64(d))
}

// SetLogf installs the slow-op log sink (log.Printf-shaped). Nil
// silences it.
func (t *Tracer) SetLogf(logf func(format string, args ...any)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.logf = logf
	t.mu.Unlock()
}

// Start begins a root span under a freshly minted trace ID. When the
// tracer is disabled (or nil) it returns the zero Span, whose methods
// are all no-ops — no allocation, no lock.
func (t *Tracer) Start(name string) Span {
	if !t.Enabled() {
		return Span{}
	}
	t.seed()
	trace := TraceID(t.ids.Add(1))
	return t.start(name, SpanContext{Trace: trace}, 0)
}

// StartChild begins a span parented under parent. An invalid parent
// (zero trace) degrades to a fresh root span, so call sites need not
// branch on whether an inbound context exists.
func (t *Tracer) StartChild(name string, parent SpanContext) Span {
	if !t.Enabled() {
		return Span{}
	}
	if !parent.Valid() {
		return t.Start(name)
	}
	return t.start(name, SpanContext{Trace: parent.Trace}, parent.Span)
}

// StartRemote begins a span that joins a trace minted elsewhere (the
// trace ID arrived over the wire). The span is a local root (no parent
// span ID) within the remote trace. A zero trace degrades to Start.
func (t *Tracer) StartRemote(name string, trace TraceID) Span {
	if !t.Enabled() {
		return Span{}
	}
	if trace == 0 {
		return t.Start(name)
	}
	return t.start(name, SpanContext{Trace: trace}, 0)
}

func (t *Tracer) start(name string, ctx SpanContext, parent SpanID) Span {
	t.seed()
	ctx.Span = SpanID(t.ids.Add(1))
	return Span{t: t, ctx: ctx, parent: parent, name: name, start: time.Now()}
}

// Span is one in-progress span. It is a value type: a disabled span is
// the zero value and every method no-ops on it. Keep spans in local
// variables (they are not safe for concurrent use) and call End exactly
// once.
type Span struct {
	t      *Tracer
	ctx    SpanContext
	parent SpanID
	name   string
	start  time.Time
	nattr  int
	attrs  [maxAttrs]Attr
}

// Active reports whether the span is recording (false for the zero
// span). Use it to skip attr rendering that would itself cost work.
func (s *Span) Active() bool { return s.t != nil }

// Context returns the span's propagatable identity, for parenting
// children locally or remotely. Zero for an inactive span.
func (s *Span) Context() SpanContext {
	if s.t == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Attr annotates the span. Beyond the fixed attr capacity, annotations
// are dropped. No-op on an inactive span.
func (s *Span) Attr(key, val string) {
	if s.t == nil || s.nattr >= maxAttrs {
		return
	}
	s.attrs[s.nattr] = Attr{Key: key, Val: val}
	s.nattr++
}

// AttrInt annotates the span with an integer value. The render cost is
// paid only when the span is active.
func (s *Span) AttrInt(key string, val int64) {
	if s.t == nil {
		return
	}
	s.Attr(key, fmt.Sprintf("%d", val))
}

// End finishes the span and commits it to the ring. No-op on an
// inactive span; calling End twice records twice (don't).
func (s *Span) End() {
	if s.t == nil {
		return
	}
	t := s.t
	dur := time.Since(s.start)
	rec := SpanRecord{
		Trace:  s.ctx.Trace,
		ID:     s.ctx.Span,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.UnixNano(),
		Dur:    int64(dur),
	}
	if s.nattr > 0 {
		rec.Attrs = append([]Attr(nil), s.attrs[:s.nattr]...)
	}
	slow := t.slowNs.Load()
	t.mu.Lock()
	rec.Proc = t.proc
	if len(t.ring) == 0 {
		t.ring = make([]SpanRecord, DefaultRingCapacity)
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	} else {
		t.overwritten++
	}
	logf := t.logf
	var tree []SpanRecord
	if logf != nil && slow > 0 && s.parent == 0 && int64(dur) >= slow {
		tree = t.traceLocked(s.ctx.Trace)
	}
	t.mu.Unlock()
	if tree != nil {
		logf("obs: slow op %s (%v):\n%s", s.name, dur, formatTree(tree))
	}
}

// Snapshot copies every record currently in the ring, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	if t.n < len(t.ring) {
		out = append(out, t.ring[:t.n]...)
		return out
	}
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Overwritten returns how many finished spans the ring has evicted to
// make room for newer ones: a trace assembled from a ring that overwrote
// any may be missing spans.
func (t *Tracer) Overwritten() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overwritten
}

// TraceSpans returns the ring's records belonging to one trace, oldest
// first.
func (t *Tracer) TraceSpans(id TraceID) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceLocked(id)
}

func (t *Tracer) traceLocked(id TraceID) []SpanRecord {
	var out []SpanRecord
	appendRange := func(recs []SpanRecord) {
		for i := range recs {
			if recs[i].Trace == id {
				out = append(out, recs[i])
			}
		}
	}
	if t.n < len(t.ring) {
		appendRange(t.ring[:t.n])
	} else {
		appendRange(t.ring[t.next:])
		appendRange(t.ring[:t.next])
	}
	return out
}

// formatTree renders one trace's spans as an indented tree for the
// slow-op log, children under parents, siblings by start time.
func formatTree(recs []SpanRecord) string {
	children := make(map[SpanID][]SpanRecord)
	byID := make(map[SpanID]bool, len(recs))
	for _, r := range recs {
		byID[r.ID] = true
	}
	var roots []SpanRecord
	for _, r := range recs {
		if r.Parent != 0 && byID[r.Parent] {
			children[r.Parent] = append(children[r.Parent], r)
		} else {
			roots = append(roots, r)
		}
	}
	byStart := func(s []SpanRecord) {
		sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	}
	byStart(roots)
	var b strings.Builder
	var walk func(r SpanRecord, depth int)
	walk = func(r SpanRecord, depth int) {
		fmt.Fprintf(&b, "%s%s %v", strings.Repeat("  ", depth+1), r.Name, time.Duration(r.Dur))
		for _, a := range r.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Val)
		}
		b.WriteByte('\n')
		kids := children[r.ID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return strings.TrimRight(b.String(), "\n")
}
