package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"crfs/internal/server"
	"crfs/internal/vfs"
)

// TestListDelRoundtrip exercises the v2 LIST and DEL verbs the striped
// store's scrub and delete passes depend on.
func TestListDelRoundtrip(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	c := e.client(t)

	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("LIST on empty store = %v", names)
	}

	for _, name := range []string{"b-ckpt", "a-ckpt", "dir/nested"} {
		body := []byte("body of " + name)
		if err := c.Put(name, bytes.NewReader(body), int64(len(body))); err != nil {
			t.Fatalf("PUT %s: %v", name, err)
		}
	}
	names, err = c.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a-ckpt", "b-ckpt", "dir/nested"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("LIST = %v, want %v (sorted)", names, want)
	}

	if err := c.Delete("b-ckpt"); err != nil {
		t.Fatalf("DEL: %v", err)
	}
	// DEL is idempotent: a repeat, and a never-existed name, both succeed.
	if err := c.Delete("b-ckpt"); err != nil {
		t.Fatalf("repeat DEL: %v", err)
	}
	if err := c.Delete("never-existed"); err != nil {
		t.Fatalf("DEL of missing name: %v", err)
	}
	names, err = c.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"a-ckpt", "dir/nested"}) {
		t.Fatalf("LIST after DEL = %v", names)
	}
	var sink bytes.Buffer
	if _, err := c.Get("b-ckpt", &sink); err == nil {
		t.Fatal("GET of deleted name succeeded")
	}
}

// TestListExcludesStagingTemps: in-flight PUT staging temps are an
// implementation detail and must never appear in listings.
func TestListExcludesStagingTemps(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	writeThrough(t, e.fs, "real", []byte("data"))
	writeThrough(t, e.fs, server.StagingName("real", 3), []byte("staged"))
	c := e.client(t)
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"real"}) {
		t.Fatalf("LIST = %v, want [real]", names)
	}
}

// TestListStreamsLargeNamespace pushes the listing body across several
// data frames and checks the count trailer agrees.
func TestListStreamsLargeNamespace(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	// Long names, and enough of them that the body spans more than two
	// DataChunk frames.
	const (
		nameLen = 240
		n       = 2*server.DataChunk/(nameLen+1) + 100
	)
	for i := 0; i < n; i++ {
		writeThrough(t, e.fs, fmt.Sprintf("checkpoint-with-a-rather-long-name-%0*d", nameLen-35, i), []byte("x"))
	}
	c := e.client(t)
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != n {
		t.Fatalf("LIST returned %d names, want %d", len(names), n)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("LIST not sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

// TestPeriodicSweepRemovesStaleTemps proves the fix for the
// startup-only sweep: a daemon that never restarts now reclaims
// aborted-PUT staging temps on the configured cadence — while never
// touching the temp of a PUT that is still in flight.
func TestPeriodicSweepRemovesStaleTemps(t *testing.T) {
	e := newEnv(t, nil, server.Config{SweepInterval: 20 * time.Millisecond})
	// A stale temp, planted as if an earlier daemon crashed mid-PUT.
	stale := server.StagingName("dead", 1)
	writeThrough(t, e.fs, stale, []byte("orphaned"))

	// A live PUT parked mid-body: its temp is registered and must survive.
	r := dialRaw(t, e.addr)
	r.send(server.FrameReq, 1, []byte("PUT live 1048576"))
	r.send(server.FrameData, 1, bytes.Repeat([]byte("x"), 64<<10))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := e.fs.Open(stale, vfs.ReadOnly); errors.Is(err, vfs.ErrNotExist) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic sweep never removed the stale staging temp")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Sweeps have provably run; the live PUT's temp must still exist.
	if name := findStaging(t, e.fs, "."); name == "" {
		t.Fatal("live PUT staging temp was swept mid-flight")
	}

	// Complete the PUT; it must commit despite the sweeps that ran.
	r.send(server.FrameData, 1, bytes.Repeat([]byte("x"), (1<<20)-(64<<10)))
	r.send(server.FrameEnd, 1, nil)
	for {
		hdr, payload := r.recv()
		if hdr.ReqID != 1 {
			continue
		}
		if hdr.Type != server.FrameEnd {
			t.Fatalf("PUT finished with frame type %#x (%s)", hdr.Type, payload)
		}
		break
	}

	st := e.srv.Stats()
	if st.SweepsRun == 0 {
		t.Errorf("SweepsRun = 0 after periodic sweeping")
	}
	if st.SweepTempsRemoved == 0 {
		t.Errorf("SweepTempsRemoved = 0 after removing a stale temp")
	}
}

// TestDrainSweepsStaging: a graceful shutdown leaves no staging temps
// behind for the next daemon to trip over.
func TestDrainSweepsStaging(t *testing.T) {
	e := newEnv(t, nil, server.Config{})
	stale := server.StagingName("dead", 2)
	writeThrough(t, e.fs, stale, []byte("orphaned"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := e.fs.Open(stale, vfs.ReadOnly); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("staging temp survived the drain sweep: %v", err)
	}
}
