package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"crfs/internal/client"
	"crfs/internal/server"
)

// fakeHelloServer accepts connections and answers the client hello with
// an arbitrary hello payload, then hangs up. It lets dial tests exercise
// hellos a real crfsd would never send.
func fakeHelloServer(t *testing.T, hello string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, len(server.HelloLine))
				if _, err := io.ReadFull(c, buf); err != nil {
					return
				}
				server.WriteFrame(c, server.FrameHello, 0, []byte(hello))
				// Give the client time to read the hello before the close.
				time.Sleep(50 * time.Millisecond)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestDialRejectsMalformedHello proves the strict-hello fix end to end:
// a server advertising a broken in-flight cap fails the dial with
// server.ErrProtocol instead of silently degrading the session to one
// request at a time.
func TestDialRejectsMalformedHello(t *testing.T) {
	for _, hello := range []string{
		"crfsd/2 codec=raw",
		"maxinflight=",
		"maxinflight=potato",
		"maxinflight=0",
		"maxinflight=-1",
	} {
		addr := fakeHelloServer(t, hello)
		c, err := client.Dial(addr, client.Config{})
		if err == nil {
			c.Close()
			t.Errorf("Dial succeeded against hello %q, want protocol error", hello)
			continue
		}
		if !errors.Is(err, server.ErrProtocol) {
			t.Errorf("Dial against hello %q: error %v does not wrap server.ErrProtocol", hello, err)
		}
	}
}

// killProxy forwards TCP connections to a backend and can sever every
// live connection on demand, simulating a network partition or server
// restart between a client and crfsd.
type killProxy struct {
	ln      net.Listener
	backend string

	mu    sync.Mutex
	conns []net.Conn
}

func newKillProxy(t *testing.T, backend string) *killProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killProxy{ln: ln, backend: backend}
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.KillAll()
	})
	return p
}

func (p *killProxy) Addr() string { return p.ln.Addr().String() }

func (p *killProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, b)
		p.mu.Unlock()
		go func() { io.Copy(b, c); b.Close(); c.Close() }()
		go func() { io.Copy(c, b); c.Close(); b.Close() }()
	}
}

// KillAll severs every connection currently flowing through the proxy.
func (p *killProxy) KillAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestRedialRetriesIdempotentVerbs kills the connection between
// operations and expects idempotent verbs to redial and complete
// transparently within the configured budget.
func TestRedialRetriesIdempotentVerbs(t *testing.T) {
	addr := startServer(t)
	proxy := newKillProxy(t, addr)
	c, err := client.Dial(proxy.Addr(), client.Config{Redials: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := bytes.Repeat([]byte("redial"), 10<<10)
	if err := c.Put("ckpt-0", bytes.NewReader(payload), int64(len(payload))); err != nil {
		t.Fatal(err)
	}

	proxy.KillAll()
	var got bytes.Buffer
	if n, err := c.Get("ckpt-0", &got); err != nil {
		t.Fatalf("GET after kill: %v", err)
	} else if n != int64(len(payload)) || !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("GET after kill returned %d bytes, want %d identical", n, len(payload))
	}

	proxy.KillAll()
	if err := c.Ping(); err != nil {
		t.Fatalf("PING after kill: %v", err)
	}
	proxy.KillAll()
	if _, err := c.Stat(); err != nil {
		t.Fatalf("STAT after kill: %v", err)
	}
	proxy.KillAll()
	names, err := c.List()
	if err != nil {
		t.Fatalf("LIST after kill: %v", err)
	}
	if len(names) != 1 || names[0] != "ckpt-0" {
		t.Fatalf("LIST after kill = %v, want [ckpt-0]", names)
	}
	proxy.KillAll()
	if err := c.Delete("ckpt-0"); err != nil {
		t.Fatalf("DEL after kill: %v", err)
	}
	// Deleting again is idempotent and must also survive a kill.
	proxy.KillAll()
	if err := c.Delete("ckpt-0"); err != nil {
		t.Fatalf("repeat DEL after kill: %v", err)
	}
}

// TestRedialBudgetExhaustion proves the retry loop is bounded: once the
// budget is spent, the next session loss is final.
func TestRedialBudgetExhaustion(t *testing.T) {
	addr := startServer(t)
	proxy := newKillProxy(t, addr)
	c, err := client.Dial(proxy.Addr(), client.Config{Redials: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	proxy.KillAll()
	if err := c.Ping(); err != nil {
		t.Fatalf("PING within budget: %v", err)
	}
	proxy.KillAll()
	// Give the reader a moment to observe the severed connection; the
	// next request then needs a redial the budget no longer covers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ping(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("PING kept succeeding past the redial budget")
		}
		proxy.KillAll()
		time.Sleep(10 * time.Millisecond)
	}
}

// killerReader returns checkpoint bytes and severs every proxied
// connection after the first chunk is consumed, so the session dies
// while a PUT body is mid-stream.
type killerReader struct {
	proxy *killProxy
	n     int
	reads int
}

func (r *killerReader) Read(p []byte) (int, error) {
	r.reads++
	if r.reads == 2 {
		r.proxy.KillAll()
		// Let the close land before we keep streaming.
		time.Sleep(50 * time.Millisecond)
	}
	if r.n <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if n > r.n {
		n = r.n
	}
	for i := 0; i < n; i++ {
		p[i] = byte(i)
	}
	r.n -= n
	return n, nil
}

// TestPutPoisonedAfterBodyConsumed is the kill-the-conn-mid-PUT
// regression test: once body bytes have been consumed from the caller's
// reader, a session loss cannot be transparently retried, so Put must
// fail with the typed ErrSessionPoisoned — and a fresh, re-staged Put on
// the same Client must then succeed over a redialed session.
func TestPutPoisonedAfterBodyConsumed(t *testing.T) {
	addr := startServer(t)
	proxy := newKillProxy(t, addr)
	c, err := client.Dial(proxy.Addr(), client.Config{Redials: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	size := int64(8 << 20)
	// A body read through Read, and one held in memory and handed over
	// by WriteTo: either way the connection dies mid-body.
	pieces := 0
	for _, body := range []io.Reader{
		&killerReader{proxy: proxy, n: int(size)},
		&piecesBody{b: make([]byte, size), piece: 1 << 20, onPiece: func() {
			if pieces++; pieces == 1 {
				proxy.KillAll()
				time.Sleep(50 * time.Millisecond)
			}
		}},
	} {
		err = c.Put("poisoned", body, size)
		if err == nil {
			t.Fatal("PUT succeeded across a severed connection")
		}
		if !errors.Is(err, client.ErrSessionPoisoned) {
			t.Fatalf("PUT error %v does not wrap ErrSessionPoisoned", err)
		}

		// The caller re-stages and retries: the same Client must recover.
		payload := bytes.Repeat([]byte("restaged"), 8<<10)
		if err := c.Put("poisoned", bytes.NewReader(payload), int64(len(payload))); err != nil {
			t.Fatalf("re-staged PUT after poison: %v", err)
		}
		var got bytes.Buffer
		if _, err := c.Get("poisoned", &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatal("re-staged PUT content mismatch")
		}
	}
}

// TestGetNoRetryAfterPartialDelivery: a session loss after body bytes
// reached the caller's writer must surface an error rather than retry
// and deliver duplicate bytes.
func TestGetNoRetryAfterPartialDelivery(t *testing.T) {
	addr := startServer(t)
	proxy := newKillProxy(t, addr)
	c, err := client.Dial(proxy.Addr(), client.Config{Redials: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := bytes.Repeat([]byte{0xAB}, 4<<20)
	if err := c.Put("big", bytes.NewReader(payload), int64(len(payload))); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var n int64
	sink := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		n += int64(len(p))
		kill := n >= 64<<10 && n < int64(len(payload))
		mu.Unlock()
		if kill {
			proxy.KillAll()
		}
		return len(p), nil
	})
	got, err := c.Get("big", sink)
	if err == nil {
		// The whole body may already have been in flight when the kill
		// landed; only a partial delivery must refuse to retry.
		if got != int64(len(payload)) {
			t.Fatalf("GET returned nil error with %d of %d bytes", got, len(payload))
		}
		return
	}
	if got == 0 || got >= int64(len(payload)) {
		t.Fatalf("expected a partial delivery, got %d bytes (err %v)", got, err)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestKillConnMidRun hammers a proxied client with interleaved PUTs and
// GETs while the connection is severed repeatedly; every object must
// come back byte-identical.
func TestKillConnMidRun(t *testing.T) {
	addr := startServer(t)
	proxy := newKillProxy(t, addr)
	c, err := client.Dial(proxy.Addr(), client.Config{Redials: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := make(map[string][]byte)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("run-%d", i)
		payload := bytes.Repeat([]byte{byte('a' + i)}, 1024*(i+1))
		for {
			err := c.Put(name, bytes.NewReader(payload), int64(len(payload)))
			if err == nil {
				break
			}
			if !errors.Is(err, client.ErrSessionPoisoned) {
				t.Fatalf("PUT %s: %v", name, err)
			}
			// Poisoned mid-body: re-stage (our payload is replayable) and retry.
		}
		want[name] = payload
		if i%3 == 1 {
			proxy.KillAll()
		}
	}
	for name, payload := range want {
		var got bytes.Buffer
		if _, err := c.Get(name, &got); err != nil {
			t.Fatalf("GET %s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("GET %s: content mismatch (%d vs %d bytes)", name, got.Len(), len(payload))
		}
	}
}
