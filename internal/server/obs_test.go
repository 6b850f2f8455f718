package server_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crfs/internal/client"
	"crfs/internal/core"
	"crfs/internal/memfs"
	"crfs/internal/metrics"
	"crfs/internal/obs"
	"crfs/internal/server"
)

// TestParseRequestTrace covers the optional trailing trace field: every
// verb accepts it, malformed forms are rejected, and TRACE's positional
// id parses independently.
func TestParseRequestTrace(t *testing.T) {
	accept := []struct {
		line  string
		verb  string
		trace uint64
	}{
		{"PUT a 10 T=00000000000000ff", "PUT", 0xff},
		{"GET a T=0000000000000001", "GET", 1},
		{"STAT T=deadbeefdeadbeef", "STAT", 0xdeadbeefdeadbeef},
		{"PING", "PING", 0},
		{"TRACE", "TRACE", 0},
		{"TRACE deadbeefdeadbeef", "TRACE", 0xdeadbeefdeadbeef},
	}
	for _, tc := range accept {
		req, err := server.ParseRequest(tc.line)
		if err != nil {
			t.Errorf("ParseRequest(%q): %v", tc.line, err)
			continue
		}
		if req.Verb != tc.verb || req.Trace != tc.trace {
			t.Errorf("ParseRequest(%q) = %s trace=%x, want %s trace=%x", tc.line, req.Verb, req.Trace, tc.verb, tc.trace)
		}
	}
	reject := []string{
		"GET a T=xyz",        // not hex
		"GET a T=ff",         // not 16 digits
		"T=00000000000000ff", // trace field with no verb
		"TRACE 0",            // zero trace id
		"TRACE a b",          // arity
		"PUT a 10 T=00000000000000ff extra T=00000000000000ff", // only trailing position is peeled
	}
	for _, line := range reject {
		if _, err := server.ParseRequest(line); err == nil {
			t.Errorf("ParseRequest(%q) accepted, want error", line)
		}
	}
	if got := server.TraceField(0xff); got != "T=00000000000000ff" {
		t.Errorf("TraceField(0xff) = %q", got)
	}
}

// TestMetricsExposition drives real traffic through the daemon and
// validates the /metrics handler output with the strict exposition
// checker: well-formed families, cumulative buckets, le ordering, and
// the full histogram series set from both the mount and the server.
func TestMetricsExposition(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	c, err := client.Dial(e.addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("exposition"), 64<<10/10)
	if err := c.Put("obj", bytes.NewReader(payload), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if _, err := c.Get("obj", &sink); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	e.srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.Bytes()
	if err := metrics.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, series := range []string{
		"crfs_write_latency_seconds",
		"crfs_read_latency_seconds",
		"crfs_sync_latency_seconds",
		"crfs_encode_latency_seconds",
		"crfs_backend_write_latency_seconds",
		"crfs_frame_bytes",
		"crfs_queue_wait_write_seconds",
		"crfsd_put_latency_seconds",
		"crfsd_get_latency_seconds",
	} {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if !bytes.Contains(body, []byte(series+suffix)) {
				t.Errorf("exposition missing %s%s", series, suffix)
			}
		}
	}
	// The PUT and GET above must have been observed, and the tracer
	// reports its ring's losses (none: tracing is off here).
	for _, want := range []string{"crfsd_put_latency_seconds_count 1", "crfsd_get_latency_seconds_count 1", "crfs_trace_spans_overwritten_total 0"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// STAT and /metrics render from one registry: every STAT key must
	// appear, with its counter value agreeing at this quiet point.
	stat, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	stat = strings.TrimPrefix(strings.TrimSpace(stat), "OK ")
	for _, kv := range strings.Fields(stat) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			t.Fatalf("malformed STAT field %q in %q", kv, stat)
		}
		if k == "writes" {
			if !bytes.Contains(body, []byte(fmt.Sprintf("crfs_writes_total %s", v))) {
				t.Errorf("STAT writes=%s not reflected in exposition", v)
			}
		}
	}
}

// TestTraceVerbPropagation checks the wire half of tracing end to end
// on one daemon: a PUT carrying a client trace ID must land daemon
// request and pipeline spans in that trace, and the TRACE verb must
// serve them back filtered.
func TestTraceVerbPropagation(t *testing.T) {
	tr := obs.New(1024)
	tr.SetProcess("daemon-under-test")
	tr.SetEnabled(true)
	// The mount shares the server's tracer, as cmd/crfsd wires it, so
	// request spans and pipeline spans land in one ring.
	fs, err := core.Mount(memfs.New(), core.Options{ChunkSize: 64 << 10, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Unmount() })
	srv := server.New(fs, server.Config{Tracer: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	c, err := client.Dial(ln.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := obs.SpanContext{Trace: 0xabcdef0123456789, Span: 1}
	payload := bytes.Repeat([]byte("traced"), 16<<10)
	if err := c.PutTraced("obj", bytes.NewReader(payload), int64(len(payload)), ctx); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if _, err := c.GetTraced("obj", &sink, ctx); err != nil {
		t.Fatal(err)
	}

	// Request spans commit after the response; poll the dump briefly.
	want := map[string]bool{"crfsd.PUT": false, "crfsd.GET": false, "crfs.write": false, "crfs.read": false}
	deadline := time.Now().Add(5 * time.Second)
	var recs []obs.SpanRecord
	for {
		recs, err = c.TraceDump(ctx.Trace)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			want[k] = false
		}
		for _, r := range recs {
			if _, ok := want[r.Name]; ok {
				want[r.Name] = true
			}
		}
		all := true
		for _, seen := range want {
			all = all && seen
		}
		if all || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace dump missing span %q (got %d records)", name, len(recs))
		}
	}
	for _, r := range recs {
		if r.Trace != ctx.Trace {
			t.Errorf("filtered dump returned foreign trace %x (span %s)", r.Trace, r.Name)
		}
		if r.Proc != "daemon-under-test" {
			t.Errorf("span %s missing process name: %q", r.Name, r.Proc)
		}
	}

	// Unfiltered TRACE returns at least as much.
	allRecs, err := c.TraceDump(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(allRecs) < len(recs) {
		t.Errorf("unfiltered dump returned %d records, filtered %d", len(allRecs), len(recs))
	}
}
