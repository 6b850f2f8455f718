package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/core"
	"crfs/internal/memfs"
	"crfs/internal/server"
	"crfs/internal/vfs"
)

var errInjected = errors.New("injected fault")

// recFS logs, in order, the backend calls a crash-safe replace is made
// of: each file's writes, syncs and closes, every rename, every
// directory sync. It can fail the first call of one kind on a temp.
type recFS struct {
	vfs.FS
	mu   sync.Mutex
	log  []string
	fail string // "write", "sync", "close" or "rename"; "" fails nothing
}

// note logs one call and reports whether it is the one to fail.
func (r *recFS) note(op, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, op+" "+name)
	if op == r.fail && vfs.IsTemp(strings.Fields(name)[0]) {
		r.fail = ""
		return errInjected
	}
	return nil
}

func (r *recFS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	f, err := r.FS.Open(name, flag)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r, name: vfs.Clean(name)}, nil
}

func (r *recFS) Rename(oldName, newName string) error {
	if err := r.note("rename", vfs.Clean(oldName)+" "+vfs.Clean(newName)); err != nil {
		return err
	}
	return r.FS.Rename(oldName, newName)
}

func (r *recFS) SyncDir(name string) error {
	r.note("syncdir", vfs.Clean(name))
	return r.FS.SyncDir(name)
}

// protocol returns the logged calls that touch a temp, plus every
// directory sync, with each run of writes folded into one "write".
func (r *recFS) protocol() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, e := range r.log {
		op, name, _ := strings.Cut(e, " ")
		if op != "syncdir" && !vfs.IsTemp(strings.Fields(name)[0]) {
			continue
		}
		if op == "write" && len(out) > 0 && strings.HasPrefix(out[len(out)-1], "write ") {
			continue
		}
		out = append(out, e)
	}
	return out
}

type recFile struct {
	vfs.File
	r    *recFS
	name string
}

func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.r.note("write", f.name); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *recFile) Sync() error {
	if err := f.r.note("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *recFile) Close() error {
	err := f.r.note("close", f.name)
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	return err
}

// wantProtocol is the replace protocol on temp for name: the writes,
// then Sync, Close, Rename over name and a sync of name's directory.
func wantProtocol(temp, name string) []string {
	dir, _ := vfs.Split(name)
	return []string{"write " + temp, "sync " + temp, "close " + temp, "rename " + temp + " " + name, "syncdir " + dir}
}

// tempsIn lists the temps left anywhere in fsys.
func tempsIn(t *testing.T, fsys vfs.FS, dir string) []string {
	t.Helper()
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range ents {
		path := vfs.Join(dir, ent.Name)
		if ent.IsDir {
			out = append(out, tempsIn(t, fsys, path)...)
		} else if vfs.IsTemp(path) {
			out = append(out, path)
		}
	}
	return out
}

// replaceRows are the callers of vfs.Replace. setup returns the
// recorder under a row's store, the bytes name holds before, a func that
// replaces name through the caller and reports the caller's error, and
// a func that reads name back.
var replaceRows = []struct {
	row, name string
	setup     func(t *testing.T) (rec *recFS, old []byte, replace func() error, read func() []byte)
}{
	// compact.CompactPath over memfs: a container holding a dead frame is
	// rewritten to its live frames.
	{row: "compact", name: "ckpt/a.crfc", setup: func(t *testing.T) (*recFS, []byte, func() error, func() []byte) {
		back := memfs.New()
		fs, err := core.Mount(back, core.Options{ChunkSize: 4 << 10, BufferPoolSize: 64 << 10, Codec: codec.Deflate()})
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.MkdirAll("ckpt"); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("ckpt/a.crfc", vfs.WriteOnly|vfs.Create)
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v <= 2; v++ { // the rewrite leaves v1's frame dead
			if _, err := f.WriteAt(bytes.Repeat([]byte{byte(v)}, 4<<10), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		rec := &recFS{FS: back}
		old, err := vfs.ReadFile(back, "ckpt/a.crfc")
		if err != nil {
			t.Fatal(err)
		}
		replace := func() error {
			rep := compact.CompactPath(rec, "ckpt/a.crfc", int64(len(old)))
			if rep.Err != "" {
				return errors.New(rep.Err)
			}
			if !rep.Compacted {
				return fmt.Errorf("container not compacted: %+v", rep)
			}
			return nil
		}
		read := func() []byte {
			b, err := vfs.ReadFile(back, "ckpt/a.crfc")
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		return rec, old, replace, read
	}},
	// A daemon PUT over core over the recorder: the OK must wait for the
	// body's Sync, and the mount counts exactly that one Sync.
	{row: "daemon", name: "dir/ckpt", setup: func(t *testing.T) (*recFS, []byte, func() error, func() []byte) {
		rec := &recFS{FS: memfs.New()}
		e := newEnv(t, rec, server.Config{})
		old := versionedBody("dir/ckpt", 1, 200<<10)
		writeThrough(t, e.fs, "dir/ckpt", old)
		c := e.client(t)
		replace := func() error {
			next := versionedBody("dir/ckpt", 2, 300<<10)
			syncs := e.fs.Stats().Syncs
			if err := c.Put("dir/ckpt", bytes.NewReader(next), int64(len(next))); err != nil {
				return err
			}
			if n := e.fs.Stats().Syncs - syncs; n != 1 {
				return fmt.Errorf("PUT made %d Syncs through the mount, want 1", n)
			}
			return nil
		}
		read := func() []byte {
			var got bytes.Buffer
			if _, err := c.Get("dir/ckpt", &got); err != nil {
				t.Fatal(err)
			}
			return got.Bytes()
		}
		return rec, old, replace, read
	}},
	// The mount's own Put (vfs.Tree over core over the recorder), as a
	// local crfscp copy makes it: one Sync through the mount.
	{row: "mount", name: "dir/ckpt", setup: func(t *testing.T) (*recFS, []byte, func() error, func() []byte) {
		rec := &recFS{FS: memfs.New()}
		fs, err := core.Mount(rec, core.Options{ChunkSize: 64 << 10, BufferPoolSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Unmount() })
		old := versionedBody("dir/ckpt", 1, 200<<10)
		writeThrough(t, fs, "dir/ckpt", old)
		replace := func() error {
			next := versionedBody("dir/ckpt", 2, 300<<10)
			syncs := fs.Stats().Syncs
			if err := (vfs.Tree{FS: fs}).Put("dir/ckpt", bytes.NewReader(next), int64(len(next))); err != nil {
				return err
			}
			if n := fs.Stats().Syncs - syncs; n != 1 {
				return fmt.Errorf("Put made %d Syncs through the mount, want 1", n)
			}
			return nil
		}
		return rec, old, replace, func() []byte { return readThrough(t, fs, "dir/ckpt") }
	}},
}

// TestReplaceOrder: every caller of vfs.Replace commits a replacement as
// write → Sync → Close → Rename over the name → sync of its directory,
// and a fault at any of the first four steps fails the caller, removes
// the temp and leaves the old bytes under the name.
func TestReplaceOrder(t *testing.T) {
	for _, spec := range replaceRows {
		t.Run(spec.row, func(t *testing.T) {
			rec, old, replace, read := spec.setup(t)
			if err := replace(); err != nil {
				t.Fatal(err)
			}
			got := rec.protocol()
			if len(got) == 0 {
				t.Fatal("no temp was written")
			}
			temp, _, _ := strings.Cut(strings.TrimPrefix(got[0], "write "), " ")
			if want := wantProtocol(temp, spec.name); !reflect.DeepEqual(got, want) {
				t.Fatalf("replace protocol:\n got %q\nwant %q", got, want)
			}
			if bytes.Equal(read(), old) {
				t.Fatal("name still reads the old bytes after the replace")
			}
		})
		for _, step := range []string{"write", "sync", "close", "rename"} {
			t.Run(spec.row+"/fail-"+step, func(t *testing.T) {
				rec, old, replace, read := spec.setup(t)
				rec.fail = step
				if err := replace(); err == nil {
					t.Fatalf("replace succeeded through a failed %s", step)
				}
				if rec.fail != "" {
					t.Fatalf("the %s fault never fired", step)
				}
				if temps := tempsIn(t, rec.FS, "."); len(temps) != 0 {
					t.Fatalf("temps survived a failed %s: %q", step, temps)
				}
				if !bytes.Equal(read(), old) {
					t.Fatalf("a failed %s damaged the old bytes", step)
				}
			})
		}
	}
}

// TestPutIntoTempNamespaceRefused: no client can store an object under
// a temp name — a sweep would delete it, and LIST would hide it.
func TestPutIntoTempNamespaceRefused(t *testing.T) {
	back := memfs.New()
	e := newEnv(t, back, server.Config{})
	c := e.client(t)
	r := dialRaw(t, e.addr)
	for i, name := range []string{
		"ckpt.crfs-compact~", "dir/ckpt.crfs-compact~",
		"ckpt.crfsd-3.put~", "dir/ckpt.crfsd-3.put~",
		vfs.TempName("ckpt"), vfs.TempName("dir/ckpt"),
	} {
		if err := server.ValidateName(name); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("ValidateName(%q) = %v, want ErrInvalid", name, err)
		}
		if err := c.Put(name, strings.NewReader("x"), 1); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("client PUT %q: %v, want ErrInvalid", name, err)
		}
		// A client that skips the check is refused by the daemon.
		id := uint32(i + 1)
		r.send(server.FrameReq, id, []byte("PUT "+name+" 1"))
		if hdr, payload := r.recv(); hdr.Type != server.FrameErr || hdr.ReqID != id {
			t.Errorf("raw PUT %q: frame type %#x id %d (%s), want an error frame", name, hdr.Type, hdr.ReqID, payload)
		}
	}
	if ents, err := back.ReadDir("."); err != nil || len(ents) != 0 {
		t.Fatalf("refused PUTs wrote %v (err %v)", ents, err)
	}
}

// TestTempsInEveryFormAreSwept: temps of the current form and of both
// older ones, top-level and nested, are one namespace — never an object
// to LIST, compact.Walk or SCRUB, and removed by the daemon's
// startup sweep and by offline compaction alike.
func TestTempsInEveryFormAreSwept(t *testing.T) {
	back := memfs.New()
	e := newCodecEnv(t, back, codec.Deflate(), server.Config{})
	writeThrough(t, e.fs, "ckpt", versionedBody("ckpt", 1, 64<<10))
	writeThrough(t, e.fs, "dir/x", versionedBody("dir/x", 1, 64<<10))
	box, err := vfs.ReadFile(back, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	plant := func() []string {
		temps := []string{
			"ckpt.crfs-compact~", "dir/x.crfs-compact~",
			"ckpt.crfsd-4.put~", "dir/x.crfsd-9.put~",
			vfs.TempName("ckpt"), vfs.TempName("dir/x"),
		}
		for _, name := range temps {
			// A temp holds a whole container: only its name hides it.
			if err := vfs.WriteFile(back, name, box); err != nil {
				t.Fatal(err)
			}
		}
		return temps
	}
	temps := plant()

	names, err := e.client(t).List()
	if err != nil || !reflect.DeepEqual(names, []string{"ckpt", "dir/x"}) {
		t.Errorf("LIST = %v (err %v), want [ckpt dir/x]", names, err)
	}
	var walked []string
	if err := compact.Walk(back, ".", func(path string, _ int64) error {
		walked = append(walked, path)
		return nil
	}); err != nil || !reflect.DeepEqual(walked, []string{"ckpt", "dir/x"}) {
		t.Errorf("compact.Walk saw %v (err %v), want [ckpt dir/x]", walked, err)
	}
	if line, err := e.client(t).Scrub(); err != nil || !strings.Contains(line, " containers=2 ") {
		t.Errorf("SCRUB = %q (err %v), want containers=2", line, err)
	}

	if n, err := e.srv.SweepStaging(); err != nil || n != len(temps) {
		t.Errorf("SweepStaging = %d, %v; want %d", n, err, len(temps))
	}
	if left := tempsIn(t, back, "."); len(left) != 0 {
		t.Errorf("temps survived SweepStaging: %q", left)
	}

	temps = plant()
	rep, err := compact.CompactDir(back, ".")
	if err != nil || rep.TempsSwept != len(temps) || rep.Containers != 2 {
		t.Errorf("CompactDir swept %d temps over %d containers (err %v), want %d over 2", rep.TempsSwept, rep.Containers, err, len(temps))
	}
	if left := tempsIn(t, back, "."); len(left) != 0 {
		t.Errorf("temps survived CompactDir: %q", left)
	}
}
