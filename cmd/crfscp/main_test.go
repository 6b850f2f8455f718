package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	crfs "crfs"
	"crfs/internal/obs"
	"crfs/internal/server"
)

// daemon is an in-process crfsd: a traced mount over a directory, served
// on a loopback port.
type daemon struct {
	id, dir, addr string
	fs            *crfs.FS
	srv           *server.Server
	stopped       bool
}

func startDaemon(t *testing.T, id, dir string) *daemon {
	t.Helper()
	tr := obs.New(obs.DefaultRingCapacity)
	tr.SetProcess("crfsd:" + id)
	tr.SetEnabled(true)
	fs, err := crfs.MountDir(dir, crfs.Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{id: id, dir: dir, addr: ln.Addr().String(), fs: fs, srv: server.New(fs, server.Config{Tracer: tr})}
	go d.srv.Serve(ln)
	return d
}

func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if d.stopped {
		return
	}
	d.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		t.Errorf("stopping node %s: %v", d.id, err)
	}
	if err := d.fs.Unmount(); err != nil {
		t.Errorf("unmounting node %s: %v", d.id, err)
	}
}

// crfscp runs the command in-process and returns what it printed.
func crfscp(t *testing.T, wantCode int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != wantCode {
		t.Fatalf("crfscp %s: exit %d, want %d\nstdout: %sstderr: %s", strings.Join(args, " "), code, wantCode, &stdout, &stderr)
	}
	return stdout.String() + stderr.String()
}

// TestStripedPutKillRestoreScrub is the operator's flow against three
// daemons: stripe a checkpoint, lose a node, restore it byte-identical
// from the survivors, bring the node back with a rotted replica, and let
// scrub repair it to zero residual defects.
func TestStripedPutKillRestoreScrub(t *testing.T) {
	tmp := t.TempDir()
	nodes := make([]*daemon, 3)
	for i := range nodes {
		dir := filepath.Join(tmp, fmt.Sprintf("n%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		nodes[i] = startDaemon(t, fmt.Sprintf("n%d", i), dir)
	}
	// Nodes are listed by id, so a restarted daemon keeps its placement
	// on whatever port it comes back on.
	nodeList := func() string {
		var l []string
		for _, d := range nodes {
			l = append(l, d.id+"="+d.addr)
		}
		return strings.Join(l, ",")
	}
	t.Cleanup(func() {
		for _, d := range nodes {
			d.stop(t)
		}
	})

	image := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(image)
	src := filepath.Join(tmp, "ckpt.img")
	if err := os.WriteFile(src, image, 0o644); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(tmp, "restored")
	restore := func(when string, extra ...string) string {
		t.Helper()
		out := crfscp(t, 0, append(append([]string{"-nodes", nodeList(), "-restore"}, extra...), "ckpt.img", restored)...)
		got, err := os.ReadFile(filepath.Join(restored, "ckpt.img"))
		if err != nil || !bytes.Equal(got, image) {
			t.Fatalf("%s: restored image differs from the checkpoint (%d bytes, err %v)", when, len(got), err)
		}
		return out
	}

	// One trace covers the client and all three daemons, both ways.
	trace := filepath.Join(tmp, "trace.json")
	if out := crfscp(t, 0, "-nodes", nodeList(), "-stripe-chunk", "1048576", "-trace", trace, src); !strings.Contains(out, "from 4 processes -> "+trace) {
		t.Errorf("striped put trace summary: %q", out)
	}
	if out := restore("all nodes up", "-trace", trace); !strings.Contains(out, "from 4 processes -> "+trace) {
		t.Errorf("striped restore trace summary: %q", out)
	}

	nodes[1].stop(t)
	if out := restore("one node down"); !strings.Contains(out, "checksum_failures=0") {
		t.Errorf("restore through a dead node: %q", out)
	}

	// Rot one replica on the stopped node's disk, then bring the node
	// back: it serves the rotted bytes until scrub repairs them from the
	// surviving replica.
	chunks, err := filepath.Glob(filepath.Join(nodes[1].dir, "*.c"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunk replica on the stopped node (err %v)", err)
	}
	replica, err := os.ReadFile(chunks[0])
	if err != nil {
		t.Fatal(err)
	}
	replica[1000] ^= 0xFF
	if err := os.WriteFile(chunks[0], replica, 0o644); err != nil {
		t.Fatal(err)
	}
	nodes[1] = startDaemon(t, nodes[1].id, nodes[1].dir)
	restore("one replica rotted")
	if out := crfscp(t, 0, "-nodes", nodeList(), "-scrub"); !strings.Contains(out, " repaired=1 ") {
		t.Errorf("first scrub did not repair exactly the rotted replica: %q", out)
	}
	if out := crfscp(t, 0, "-nodes", nodeList(), "-scrub"); !strings.Contains(out, " repaired=0 ") || !strings.Contains(out, " lost_chunks=0 ") {
		t.Errorf("second scrub found residual defects: %q", out)
	}
}

// TestServerScrub: -server -scrub has the daemon verify its store, prints
// the daemon's line, and exits by what the line says — 0 over a clean
// store, 1 once a payload byte of a stored container has rotted.
func TestServerScrub(t *testing.T) {
	dir := t.TempDir()
	deflate, err := crfs.LookupCodec("deflate")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := crfs.MountDir(dir, crfs.Options{Codec: deflate})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("ckpt.img", crfs.WriteOnly|crfs.Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte("checkpoint "), 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, "n0", dir)
	t.Cleanup(func() { d.stop(t) })

	if out := crfscp(t, 0, "-server", d.addr, "-scrub"); !strings.Contains(out, " containers=1 ") || !strings.Contains(out, " clean=true") {
		t.Errorf("scrub of a clean store: %q", out)
	}
	stored := filepath.Join(dir, "ckpt.img")
	box, err := os.ReadFile(stored)
	if err != nil {
		t.Fatal(err)
	}
	box[len(box)/2] ^= 0x01 // one frame holds the whole image: this is payload
	if err := os.WriteFile(stored, box, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := crfscp(t, 1, "-server", d.addr, "-scrub"); !strings.Contains(out, " corrupt_frames=1 ") || !strings.Contains(out, " clean=false") {
		t.Errorf("scrub of a rotted store: %q", out)
	}
}

// TestScrubNeedsADaemon: -scrub is a request to a daemon or a striped
// store; without -server or -nodes it is a usage error, not a copy that
// quietly skips the scrub.
func TestScrubNeedsADaemon(t *testing.T) {
	tmp := t.TempDir()
	src := filepath.Join(tmp, "src")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(tmp, "dst")
	for _, args := range [][]string{
		{"-scrub"},
		{"-scrub", src, dst},
		{"-scrub", "-restore", src, dst},
	} {
		if out := crfscp(t, 2, args...); !strings.Contains(out, "usage: crfscp -server host:port -scrub") {
			t.Errorf("crfscp %v: %q", args, out)
		}
	}
	if _, err := os.Stat(dst); err == nil {
		t.Error("a refused -scrub still copied")
	}
}

// TestUsageErrorsExitTwo: a mode given too few arguments prints its usage
// and exits 2 without dialing anything.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"only-one-arg"},
		{"-server", "127.0.0.1:1"},
		{"-server", "127.0.0.1:1", "-restore", "name"},
		{"-server", "127.0.0.1:1", "-scrub", "src"}, // used to upload src and skip the scrub
		{"-nodes", "127.0.0.1:1"},
		{"-nodes", "127.0.0.1:1", "-restore", "name"},
		{"-no-such-flag"},
	} {
		if out := crfscp(t, 2, args...); !strings.Contains(strings.ToLower(out), "usage") {
			t.Errorf("crfscp %v: no usage text in %q", args, out)
		}
	}
}

// TestFlagSurface pins the command's flags. A new row here has to name
// the two callers that need different values (or say why it is a
// deployment setting); otherwise the value is a constant.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"bs", "chunk", "codec", "nodes", "pool", "replicas",
		"restore", "scrub", "server", "stripe-chunk", "threads", "trace",
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(crfscp(t, 0, "-h"), -1) {
		got = append(got, m[1])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crfscp -h lists flags\n%v, want\n%v", got, want)
	}
}

// TestTraceSummaryCountsOverwrittenSpans: the trace summary line says how
// many spans the run's ring overwrote, and nothing when it overwrote none.
func TestTraceSummaryCountsOverwrittenSpans(t *testing.T) {
	var out bytes.Buffer
	run := &traceRun{tr: obs.New(2), file: filepath.Join(t.TempDir(), "trace.json"), out: &out}
	run.tr.SetEnabled(true)
	spans := func(n int) {
		for i := 0; i < n; i++ {
			sp := run.span("op", "f")
			sp.End()
		}
	}
	spans(2)
	if err := run.write(nil); err != nil {
		t.Fatal(err)
	}
	if line := out.String(); strings.Contains(line, "overwritten") {
		t.Errorf("a ring that lost nothing: %q", line)
	}
	out.Reset()
	spans(3)
	if err := run.write(nil); err != nil {
		t.Fatal(err)
	}
	if line, want := out.String(), "trace: 2 spans from 1 processes -> "+run.file+", 3 spans overwritten\n"; line != want {
		t.Errorf("summary %q, want %q", line, want)
	}
}

// TestModes pins what each copy/restore mode does end to end: two files
// copied, restored and compared, each step's first summary line, a local
// copy's one application write per -bs block, and a traced daemon round
// trip that gathers spans from crfscp and the daemon.
func TestModes(t *testing.T) {
	const bs = 4096
	sizes := []int{300_001, 70_000}
	wantWrites := 0
	for _, n := range sizes {
		wantWrites += (n + bs - 1) / bs
	}
	for _, mode := range []string{"local-raw", "local-deflate", "server"} {
		t.Run(mode, func(t *testing.T) {
			tmp := t.TempDir()
			var srcs, names []string
			images := make(map[string][]byte)
			for i, n := range sizes {
				name := fmt.Sprintf("ckpt%d.img", i)
				image := bytes.Repeat([]byte(fmt.Sprintf("%s rank %d ", mode, i)), n/10+1)[:n]
				rand.New(rand.NewSource(int64(i))).Read(image[:n/2])
				src := filepath.Join(tmp, name)
				if err := os.WriteFile(src, image, 0o644); err != nil {
					t.Fatal(err)
				}
				srcs, names = append(srcs, src), append(names, name)
				images[name] = image
			}
			store, out := filepath.Join(tmp, "store"), filepath.Join(tmp, "out")
			var put, restore []string
			var putLine, restoreLine string
			switch mode {
			case "local-raw", "local-deflate":
				codec := strings.TrimPrefix(mode, "local-")
				put = append([]string{"-bs", fmt.Sprint(bs), "-codec", codec}, append(srcs, store)...)
				restore = []string{"-restore", "-bs", fmt.Sprint(bs)}
				for _, name := range names {
					restore = append(restore, filepath.Join(store, name))
				}
				restore = append(restore, out)
				putLine, restoreLine = "copied ", "restored "
			case "server":
				if err := os.Mkdir(store, 0o755); err != nil {
					t.Fatal(err)
				}
				d := startDaemon(t, "n0", store)
				t.Cleanup(func() { d.stop(t) })
				trace := filepath.Join(tmp, "trace.json")
				put = append([]string{"-server", d.addr, "-trace", trace}, srcs...)
				restore = append(append([]string{"-server", d.addr, "-restore", "-trace", trace}, names...), out)
				putLine, restoreLine = "uploaded ", "fetched "
			}
			got := crfscp(t, 0, put...)
			if !strings.HasPrefix(got, putLine) {
				t.Errorf("copy summary %q, want it to start %q", got, putLine)
			}
			if strings.HasPrefix(mode, "local") && !strings.Contains(got, fmt.Sprintf("\napp writes: %d,", wantWrites)) {
				t.Errorf("copy summary %q, want app writes: %d", got, wantWrites)
			}
			if mode == "server" && !strings.Contains(got, " from 2 processes -> ") {
				t.Errorf("traced upload %q, want spans from 2 processes", got)
			}
			got = crfscp(t, 0, restore...)
			if !strings.HasPrefix(got, restoreLine) {
				t.Errorf("restore summary %q, want it to start %q", got, restoreLine)
			}
			if mode == "server" && !strings.Contains(got, " from 2 processes -> ") {
				t.Errorf("traced restore %q, want spans from 2 processes", got)
			}
			for name, image := range images {
				if b, err := os.ReadFile(filepath.Join(out, name)); err != nil || !bytes.Equal(b, image) {
					t.Errorf("%s: restored %d bytes (err %v), want the %d-byte image", name, len(b), err, len(image))
				}
			}
		})
	}
}

// checkKept fails unless dir holds exactly the files of want, with
// their bytes: no temp beside them.
func checkKept(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(want) {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("%s holds %q, want only %d file(s)", dir, names, len(want))
	}
	for name, b := range want {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, b) {
			t.Errorf("%s: %d bytes (err %v), want the previous %d-byte copy", name, len(got), err, len(b))
		}
	}
}

// TestFailedRestoreKeepsPreviousCopy: a restore that fails — the name is
// missing, or a chunk is lost on every replica after earlier chunks were
// delivered — exits 1 and leaves the previous copy in DSTDIR as it was,
// with no temp beside it.
func TestFailedRestoreKeepsPreviousCopy(t *testing.T) {
	tmp := t.TempDir()
	image := make([]byte, 3<<20)
	rand.New(rand.NewSource(7)).Read(image)
	src := filepath.Join(tmp, "ckpt.img")
	if err := os.WriteFile(src, image, 0o644); err != nil {
		t.Fatal(err)
	}
	previous := bytes.Repeat([]byte("previous good copy "), 50_000)

	t.Run("server missing name", func(t *testing.T) {
		store, out := filepath.Join(tmp, "store"), filepath.Join(tmp, "out-server")
		for _, dir := range []string{store, out} {
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		d := startDaemon(t, "n0", store)
		t.Cleanup(func() { d.stop(t) })
		crfscp(t, 0, "-server", d.addr, src)
		if err := os.WriteFile(filepath.Join(out, "missing.img"), previous, 0o644); err != nil {
			t.Fatal(err)
		}
		crfscp(t, 1, "-server", d.addr, "-restore", "missing.img", out)
		checkKept(t, out, map[string][]byte{"missing.img": previous})
	})

	t.Run("nodes chunk lost", func(t *testing.T) {
		out := filepath.Join(tmp, "out-nodes")
		if err := os.Mkdir(out, 0o755); err != nil {
			t.Fatal(err)
		}
		var list []string
		var dirs []string
		for i := 0; i < 3; i++ {
			dir := filepath.Join(tmp, fmt.Sprintf("n%d", i))
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			d := startDaemon(t, fmt.Sprintf("n%d", i), dir)
			t.Cleanup(func() { d.stop(t) })
			list, dirs = append(list, d.id+"="+d.addr), append(dirs, dir)
		}
		nodes := strings.Join(list, ",")
		crfscp(t, 0, "-nodes", nodes, "-stripe-chunk", "1048576", src)
		// Chunk 2 of 3 goes from every replica: chunks 0 and 1 reach the
		// destination before the restore fails. A chunk is stored under the
		// hex SHA-256 of its bytes.
		lost := 0
		chunk2 := fmt.Sprintf("%x.c", sha256.Sum256(image[2<<20:3<<20]))
		for _, dir := range dirs {
			if err := os.Remove(filepath.Join(dir, chunk2)); err == nil {
				lost++
			}
		}
		if lost != 2 {
			t.Fatalf("removed %d replicas of chunk 2, want 2", lost)
		}
		if err := os.WriteFile(filepath.Join(out, "ckpt.img"), previous, 0o644); err != nil {
			t.Fatal(err)
		}
		crfscp(t, 1, "-nodes", nodes, "-restore", "ckpt.img", out)
		checkKept(t, out, map[string][]byte{"ckpt.img": previous})
	})
}
