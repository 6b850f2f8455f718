package crfs_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	crfs "crfs"
	"crfs/internal/client"
	"crfs/internal/compact"
	"crfs/internal/server"
	"crfs/internal/stripe"
)

func TestMountDirRoundtrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := crfs.MountDir(dir, crfs.Options{ChunkSize: 4096, BufferPoolSize: 16384})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if err := fs.MkdirAll("ckpt"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("ckpt/rank0.img", crfs.WriteOnly|crfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("checkpoint"), 10000)
	var off int64
	for off < int64(len(payload)) {
		n := int64(1000)
		if off+n > int64(len(payload)) {
			n = int64(len(payload)) - off
		}
		if _, err := f.WriteAt(payload[off:off+n], off); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart path: read directly from the backend, bypassing CRFS
	// (§V-F: "an application can be restarted directly from the back-end
	// filesystem, without the need to mount CRFS").
	backend, err := crfs.DirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := crfs.ReadFile(backend, "ckpt/rank0.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("backend bytes differ: %d vs %d", len(got), len(payload))
	}
	st := fs.Stats()
	if st.BackendWrites >= st.Writes {
		t.Errorf("no aggregation: %d backend writes for %d app writes", st.BackendWrites, st.Writes)
	}
}

// TestMountDirDeflateRoundtrip exercises the codec path on a real
// directory backend: a compressible checkpoint written under -codec
// deflate shrinks on disk and reads back bit-identically through a fresh
// default mount (containers decode transparently under any codec).
func TestMountDirDeflateRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := crfs.MountDir(dir, crfs.Options{
		ChunkSize: 64 << 10, BufferPoolSize: 256 << 10, Codec: crfs.DeflateCodec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("checkpoint page "), 40000)
	f, err := w.Open("rank0.img", crfs.WriteOnly|crfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(payload); off += 8192 {
		end := off + 8192
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := f.WriteAt(payload[off:end], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.CompressionRatio() <= 1 || st.Frames == 0 {
		t.Errorf("no compression recorded: %+v", st)
	}
	if err := w.Unmount(); err != nil {
		t.Fatal(err)
	}
	backend, err := crfs.DirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := backend.Stat("rank0.img"); err != nil || info.Size >= int64(len(payload)) {
		t.Errorf("on-disk container %d bytes (err=%v), want smaller than %d", info.Size, err, len(payload))
	}
	r, err := crfs.MountDir(dir, crfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unmount()
	got, err := crfs.ReadFile(r, "rank0.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("decoded read differs: %d vs %d bytes", len(got), len(payload))
	}
}

func TestMemBackend(t *testing.T) {
	fs, err := crfs.Mount(crfs.MemBackend(), crfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if err := crfs.WriteFile(fs, "x", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := crfs.ReadFile(fs, "x")
	if err != nil || string(got) != "hello" {
		t.Fatalf("roundtrip: %q %v", got, err)
	}
}

func TestErrorsExported(t *testing.T) {
	fs, err := crfs.Mount(crfs.MemBackend(), crfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	if _, err := fs.Open("missing", crfs.ReadOnly); !errors.Is(err, crfs.ErrNotExist) {
		t.Errorf("open missing = %v, want ErrNotExist", err)
	}
}

// TestOptionsSurface pins the configuration fields of every layer, the
// way each command's TestFlagSurface pins its flags: together they are
// the settable values of the system (21 fields here). A new name here
// has to come with the two callers that need different values (or say
// why it is a deployment setting); otherwise the value is a constant.
func TestOptionsSurface(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{crfs.Options{}, []string{"BufferPoolSize", "ChunkSize", "IOThreads", "ReadAhead", "RepairOnOpen", "Codec", "Tracer"}},
		{server.Config{}, []string{"MaxConns", "MaxInFlight", "ReadTimeout", "MaxPutBytes", "SweepInterval", "Logf", "Tracer"}},
		{client.Config{}, []string{"IOTimeout", "Redials"}},
		{stripe.Config{}, []string{"ChunkSize", "Replicas", "Tracer"}},
		{compact.ScrubOptions{}, []string{"Workers", "Repair"}},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s has fields\n%v, want\n%v", typ, got, tc.want)
		}
	}
}
