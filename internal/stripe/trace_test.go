package stripe_test

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	crfs "crfs"
	"crfs/internal/memfs"
	"crfs/internal/obs"
	"crfs/internal/server"
	"crfs/internal/stripe"
)

// tracedNode is one in-process crfsd daemon with its own enabled span
// ring, reached over real TCP — the cross-process half of trace
// propagation.
type tracedNode struct {
	addr string
	fs   *crfs.FS
	srv  *server.Server
	node *stripe.ClientNode
}

func (n *tracedNode) stop() {
	n.node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	n.srv.Shutdown(ctx)
	cancel()
	n.fs.Unmount()
}

func startTracedNode(t *testing.T, id string) *tracedNode {
	t.Helper()
	tr := obs.New(4096)
	tr.SetEnabled(true)
	fs, err := crfs.Mount(memfs.New(), crfs.Options{ChunkSize: 1 << 16, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(fs, server.Config{Tracer: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fs.Unmount()
		t.Fatal(err)
	}
	tr.SetProcess("crfsd:" + ln.Addr().String())
	go srv.Serve(ln)
	// A fixed ID, not the ephemeral listen address: HRW placement hashes
	// it, and the test depends on which node is primary for which chunk.
	node, err := stripe.DialNodeID(id, ln.Addr().String(), 2)
	if err != nil {
		fs.Unmount()
		t.Fatal(err)
	}
	return &tracedNode{addr: ln.Addr().String(), fs: fs, srv: srv, node: node}
}

// collectTrace merges the client tracer's ring with every daemon's
// TRACE dump, filtered to one trace. Daemon request spans commit after
// the response is sent, so the expected span set is polled briefly.
func collectTrace(s *stripe.Store, ctr *obs.Tracer, trace obs.TraceID, want []string) []obs.SpanRecord {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var recs []obs.SpanRecord
		for _, r := range ctr.Snapshot() {
			if r.Trace == trace {
				recs = append(recs, r)
			}
		}
		recs = append(recs, s.TraceDumps(trace)...)
		names := make(map[string]bool, len(recs))
		for _, r := range recs {
			names[r.Name] = true
		}
		missing := false
		for _, n := range want {
			if !names[n] {
				missing = true
			}
		}
		if !missing || time.Now().After(deadline) {
			return recs
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTracePropagation is the end-to-end observability contract: a
// striped checkpoint and restore against three real TCP daemons must
// each yield one trace whose spans cover the client coordinator, every
// participating daemon's request handling, and the daemons' core IO
// pipelines — stitched together solely by the trace IDs propagated on
// the wire.
func TestTracePropagation(t *testing.T) {
	// With these IDs every node is the primary of at least one of the
	// object's 8 chunks (3/2/3), so the restore — which reads primaries
	// only — reaches every daemon.
	var daemons []*tracedNode
	for _, id := range []string{"node-0", "node-1", "node-2"} {
		d := startTracedNode(t, id)
		defer d.stop()
		daemons = append(daemons, d)
	}
	ctr := obs.New(4096)
	ctr.SetProcess("client")
	ctr.SetEnabled(true)
	s := stripe.New(stripe.Config{ChunkSize: 64 << 10, Replicas: 2, Tracer: ctr},
		daemons[0].node, daemons[1].node, daemons[2].node)

	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	psp := ctr.Start("client.put")
	putTrace := psp.Context().Trace
	if err := s.PutTraced("ckpt", bytes.NewReader(payload), int64(len(payload)), psp.Context()); err != nil {
		t.Fatal(err)
	}
	psp.End()

	gsp := ctr.Start("client.get")
	getTrace := gsp.Context().Trace
	var out bytes.Buffer
	if _, err := s.GetTraced("ckpt", &out, gsp.Context()); err != nil {
		t.Fatal(err)
	}
	gsp.End()
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("restored bytes differ from checkpoint")
	}

	checkTrace := func(op string, trace obs.TraceID, want []string) {
		t.Helper()
		recs := collectTrace(s, ctr, trace, want)
		procs := make(map[string]bool)
		names := make(map[string]bool)
		for _, r := range recs {
			if r.Trace != trace {
				t.Fatalf("%s: TraceDumps returned span %s from foreign trace %x (want %x)", op, r.Name, r.Trace, trace)
			}
			procs[r.Proc] = true
			names[r.Name] = true
		}
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: trace %x missing span %q (got %v)", op, trace, n, keys(names))
			}
		}
		if !procs["client"] {
			t.Errorf("%s: trace %x has no client spans", op, trace)
		}
		nd := 0
		for _, d := range daemons {
			if procs["crfsd:"+d.addr] {
				nd++
			}
		}
		// 8 chunks x 2 replicas over 3 nodes with fixed IDs: every node
		// holds some replica and serves some primary.
		if nd != len(daemons) {
			t.Errorf("%s: trace %x covers %d of %d daemons (procs %v)", op, trace, nd, len(daemons), keys(procs))
		}
	}

	checkTrace("put", putTrace, []string{
		"client.put", "stripe.put", "stripe.chunk.put", "crfsd.PUT", "crfs.write", "crfs.chunk.write",
	})
	checkTrace("get", getTrace, []string{
		"client.get", "stripe.get", "stripe.chunk.get", "crfsd.GET", "crfs.read",
	})

	// The merged records must render as one loadable chrome trace with a
	// process lane per participant.
	recs := append(ctr.TraceSpans(putTrace), s.TraceDumps(putTrace)...)
	doc := obs.ChromeTrace(recs)
	if !bytes.Contains(doc, []byte("process_name")) || !bytes.Contains(doc, []byte("client")) {
		t.Fatalf("chrome trace missing process metadata: %.200s", doc)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
