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
