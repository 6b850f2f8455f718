package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crfs/internal/core"
	"crfs/internal/obs"
	"crfs/internal/vfs"
)

// Config tunes a Server. The zero value selects production-shaped
// defaults; tests shrink the timeouts.
type Config struct {
	// MaxConns caps concurrently served connections. An accepted
	// connection beyond the cap waits in the accept loop for a slot —
	// backpressure, not rejection. Default 256.
	MaxConns int
	// MaxInFlight caps concurrently handled requests per connection;
	// the cap is advertised in the hello frame and a request beyond it
	// is failed with an error frame. Default 8.
	MaxInFlight int
	// ReadTimeout bounds the wait for client bytes while a request body
	// is being streamed (and for the hello line of a new connection). A
	// stalled client hits it and the connection is torn down, aborting
	// its staged PUTs. Default 1m.
	ReadTimeout time.Duration
	// MaxPutBytes rejects PUTs declaring a larger body (0 = unlimited).
	MaxPutBytes int64
	// SweepInterval is the cadence of the background staging sweep that
	// removes `.put~` temps stranded by aborted PUTs on a long-lived
	// node (temps of in-flight PUTs are never touched). Negative
	// disables the background sweep. Default 5m.
	SweepInterval time.Duration
	// Logf, when non-nil, receives server event logs.
	Logf func(format string, args ...any)
	// Tracer receives the daemon's per-request spans (crfsd.PUT,
	// crfsd.GET, ...), joined to the client's trace when the request
	// carries a propagated trace ID. nil selects obs.Default.
	Tracer *obs.Tracer
}

// Defaults for Config's zero fields.
const (
	DefaultMaxConns      = 256
	DefaultMaxInFlight   = 8
	DefaultReadTimeout   = time.Minute
	DefaultSweepInterval = 5 * time.Minute
)

const (
	// writeTimeout bounds each frame/segment write toward the client; a
	// client that stops draining its GET hits it.
	writeTimeout = time.Minute
	// idleTimeout closes a connection with no request in flight after
	// this long.
	idleTimeout = 5 * time.Minute
)

// withDefaults fills zero Config fields.
func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = DefaultSweepInterval
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// serverCounters aggregates server activity with atomics, mirroring the
// mount's statCounters discipline: no statistics lock on any hot path.
type serverCounters struct {
	connsAccepted  atomic.Int64
	connsActive    atomic.Int64
	acceptRetries  atomic.Int64
	requests       atomic.Int64
	requestErrors  atomic.Int64
	protocolErrors atomic.Int64
	inFlightCapped atomic.Int64
	putsCommitted  atomic.Int64
	putsAborted    atomic.Int64
	getsServed     atomic.Int64
	bytesIn        atomic.Int64
	bytesOut       atomic.Int64

	sweepsRun         atomic.Int64
	sweepTempsRemoved atomic.Int64
}

// Stats is a point-in-time snapshot of server activity, the network
// face of the mount's Stats tree.
type Stats struct {
	// ConnsAccepted counts accepted connections.
	ConnsAccepted int64
	// ConnsActive is the number of connections currently being served.
	ConnsActive int64
	// AcceptRetries counts accept-loop errors survived with backoff.
	AcceptRetries int64
	// Requests counts requests started (any verb).
	Requests int64
	// RequestErrors counts requests that failed with an error response.
	RequestErrors int64
	// ProtocolErrors counts connections torn down for wire violations.
	ProtocolErrors int64
	// InFlightCapped counts requests rejected by the per-client cap.
	InFlightCapped int64
	// PutsCommitted counts PUTs whose staged file was renamed visible.
	PutsCommitted int64
	// PutsAborted counts PUTs whose staging temp was discarded.
	PutsAborted int64
	// GetsServed counts GETs streamed to completion.
	GetsServed int64
	// BytesIn / BytesOut are body payload bytes moved on the wire.
	BytesIn  int64
	BytesOut int64
	// SweepsRun counts staging-sweep passes (startup, periodic, drain).
	SweepsRun int64
	// SweepTempsRemoved counts stale staging temps removed by sweeps.
	SweepTempsRemoved int64
}

// Server serves the crfsd protocol against a CRFS mount.
type Server struct {
	fs  *core.FS
	cfg Config
	seq atomic.Uint64 // staging-name sequence

	tracer *obs.Tracer
	// Request latency histograms (always on, like the mount's): one per
	// body-moving verb, measured from handler start to terminal frame.
	putSeconds *obs.Histogram
	getSeconds *obs.Histogram

	connSem chan struct{}
	done    chan struct{} // closed when Shutdown begins
	wg      sync.WaitGroup

	sweepOnce sync.Once // starts the periodic staging sweeper

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*srvConn]struct{}
	staging   map[string]struct{} // temps of in-flight PUTs, exempt from sweeps
	draining  bool

	c serverCounters
}

// New builds a Server over an existing mount. The caller keeps ownership
// of the mount: Shutdown drains connections but does not unmount.
func New(fs *core.FS, cfg Config) *Server {
	cfg = cfg.withDefaults()
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.Default
	}
	return &Server{
		fs:         fs,
		cfg:        cfg,
		tracer:     tracer,
		putSeconds: obs.NewHistogram(obs.LatencyBounds),
		getSeconds: obs.NewHistogram(obs.LatencyBounds),
		connSem:    make(chan struct{}, cfg.MaxConns),
		done:       make(chan struct{}),
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[*srvConn]struct{}),
		staging:    make(map[string]struct{}),
	}
}

// Tracer returns the server's span tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// trackStaging marks a staging temp as owned by an in-flight PUT, and
// returns the untrack func for when the PUT commits or aborts.
func (s *Server) trackStaging(temp string) func() {
	s.mu.Lock()
	s.staging[temp] = struct{}{}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.staging, temp)
		s.mu.Unlock()
	}
}

func (s *Server) stagingLive(temp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.staging[temp]
	return ok
}

// sweeper is the background staging sweep: every SweepInterval it
// removes `.put~` temps not owned by an in-flight PUT, so aborted-PUT
// leftovers stop accumulating until the next daemon restart.
func (s *Server) sweeper() {
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n, err := s.SweepStaging(); err != nil {
				s.cfg.Logf("crfsd: staging sweep: %v", err)
			} else if n > 0 {
				s.cfg.Logf("crfsd: staging sweep removed %d stale temp(s)", n)
			}
		case <-s.done:
			return
		}
	}
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		ConnsAccepted:  s.c.connsAccepted.Load(),
		ConnsActive:    s.c.connsActive.Load(),
		AcceptRetries:  s.c.acceptRetries.Load(),
		Requests:       s.c.requests.Load(),
		RequestErrors:  s.c.requestErrors.Load(),
		ProtocolErrors: s.c.protocolErrors.Load(),
		InFlightCapped: s.c.inFlightCapped.Load(),
		PutsCommitted:  s.c.putsCommitted.Load(),
		PutsAborted:    s.c.putsAborted.Load(),
		GetsServed:     s.c.getsServed.Load(),
		BytesIn:        s.c.bytesIn.Load(),
		BytesOut:       s.c.bytesOut.Load(),

		SweepsRun:         s.c.sweepsRun.Load(),
		SweepTempsRemoved: s.c.sweepTempsRemoved.Load(),
	}
}

// Serve accepts connections on ln until the listener fails permanently
// or Shutdown is called. Transient accept errors are survived with
// exponential backoff (5ms doubling to 1s) instead of a hot retry loop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: serve after shutdown: %w", vfs.ErrClosed)
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	if s.cfg.SweepInterval > 0 {
		s.sweepOnce.Do(func() { go s.sweeper() })
	}
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.shuttingDown() {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Back off: persistent accept errors (fd exhaustion, transient
			// network failure) must not spin the loop hot.
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			s.c.acceptRetries.Add(1)
			s.cfg.Logf("crfsd: accept: %v (retrying in %v)", err, delay)
			select {
			case <-time.After(delay):
			case <-s.done:
				return nil
			}
			continue
		}
		delay = 0
		// Global connection cap: hold the accepted socket until a slot
		// frees — backpressure on the accept queue, bounded goroutines.
		select {
		case s.connSem <- struct{}{}:
		case <-s.done:
			nc.Close()
			return nil
		}
		if s.shuttingDown() {
			<-s.connSem
			nc.Close()
			return nil
		}
		s.c.connsAccepted.Add(1)
		s.c.connsActive.Add(1)
		s.wg.Add(1)
		go func() {
			defer func() {
				s.c.connsActive.Add(-1)
				<-s.connSem
				s.wg.Done()
			}()
			s.handleConn(nc)
		}()
	}
}

func (s *Server) shuttingDown() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Shutdown gracefully drains the server: listeners stop accepting, idle
// connections close, in-flight requests run to completion, and new
// requests on draining connections are refused. If ctx expires first,
// remaining connections are torn down and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if first {
		close(s.done)
	}
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		// Drained cleanly: every in-flight PUT has committed or aborted,
		// so any staging temp still on disk is garbage — sweep it before
		// the caller unmounts.
		if _, err := s.SweepStaging(); err != nil {
			s.cfg.Logf("crfsd: drain staging sweep: %v", err)
		}
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		conns = conns[:0]
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.close()
		}
		<-drained
		return ctx.Err()
	}
}

// register tracks a live connection; it returns false when the server
// is already draining and the connection should be closed instead.
func (s *Server) register(c *srvConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) unregister(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// walkFiles calls fn for every regular file under the mount root.
func (s *Server) walkFiles(fn func(path string) error) error {
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := s.fs.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			path := vfs.Join(dir, e.Name)
			if e.IsDir {
				if err := walk(path); err != nil {
					return err
				}
				continue
			}
			if err := fn(path); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(".")
}

// ListNames returns every stored object name in sorted order, PUT
// staging temps excluded — the LIST verb's view of the store.
func (s *Server) ListNames() ([]string, error) {
	names := []string{}
	err := s.walkFiles(func(path string) error {
		if !IsStagingName(path) {
			names = append(names, path)
		}
		return nil
	})
	sort.Strings(names)
	return names, err
}

// SweepStaging removes PUT staging temps left behind by a crashed or
// killed daemon. It runs at startup, on the periodic sweep cadence, and
// after a graceful drain; temps belonging to in-flight PUTs are skipped,
// so sweeping a live server never aborts real traffic.
func (s *Server) SweepStaging() (int, error) {
	removed := 0
	err := s.walkFiles(func(path string) error {
		if !IsStagingName(path) || s.stagingLive(path) {
			return nil
		}
		if err := s.fs.Remove(path); err != nil {
			return err
		}
		removed++
		return nil
	})
	s.c.sweepsRun.Add(1)
	s.c.sweepTempsRemoved.Add(int64(removed))
	return removed, err
}
