// Command crfscp copies files into a directory through a CRFS mount,
// demonstrating the real library on real storage: many small source reads
// become few large aggregated writes on the destination filesystem.
//
// Usage:
//
//	crfscp [-chunk 4194304] [-pool 16777216] [-threads 4] [-bs 8192] [-codec raw|deflate] SRC... DSTDIR
//	crfscp -restore SRC... DSTDIR
//	crfscp -server host:9000 SRC...           (upload to a crfsd daemon)
//	crfscp -server host:9000 -restore NAME... DSTDIR
//	crfscp -server host:9000 -scrub           (verify the daemon's store)
//	crfscp -nodes host1:9000,host2:9000,host3:9000 [-replicas 2] SRC...
//	crfscp -nodes host1:9000,host2:9000,host3:9000 -restore NAME... DSTDIR
//	crfscp -nodes host1:9000,host2:9000,host3:9000 -scrub
//
// -server switches to network mode: sources are streamed to a crfsd
// daemon over one persistent protocol-v2 connection instead of a local
// mount. With -restore, each NAME is fetched from the daemon into
// DSTDIR. With -scrub, the daemon re-verifies every frame of every
// container it stores; crfscp prints its summary line and exits 1
// unless it reads clean=true.
//
// -nodes switches to striped mode: each source is split into
// -stripe-chunk sized chunks placed across the listed crfsd daemons
// with -replicas copies each, behind a fully replicated per-checkpoint
// manifest (see internal/stripe). Restores stream chunks from all
// nodes in parallel and verify every chunk against its manifest
// fingerprint, failing over between replicas, so any single node can
// be down or corrupted without affecting the restored bytes. -scrub
// verifies every replica on every node and repairs bad copies from
// good ones. A node is listed as host:port, or as id=host:port to give
// it an identity of its own: placement hashes the identity (the address
// when none is given), so a daemon listed as n1=... keeps its chunks
// when it moves to another host or port.
//
// A frame container with a torn tail (a power cut mid-checkpoint)
// restores as its longest intact frame prefix; the restore never writes
// to the source directory (crfsck -repair cuts the tail off offline).
//
// With -codec deflate the destination files are CRFS frame containers:
// chunks are compressed in parallel on the IO workers, cutting the bytes
// written to the destination filesystem. Read them back through a CRFS
// mount (any codec setting), which decodes containers transparently.
//
// -trace FILE records the whole operation as spans — crfscp's own
// copy/restore spans, the CRFS pipeline's write/encode/backend spans,
// and (in network modes) every participating daemon's request and
// pipeline spans, fetched over the TRACE verb and joined by the
// propagated trace IDs — and writes them as one chrome://tracing JSON
// document: open it at chrome://tracing or https://ui.perfetto.dev.
//
// -restore runs the opposite direction (the restart half of C/R): each
// SRC is read sequentially *through* a CRFS mount over its directory —
// decoding frame containers transparently, with a container's next frames
// decoded ahead in parallel on the IO workers — and written to DSTDIR as
// a plain file.
//
// Copies and restores replace their destination files atomically: each
// file is written to a temp beside its name, synced and renamed over it,
// so a copy or restore that fails leaves the previous file as it was.
// Every mode runs the same two loops over the store it reaches (a mount,
// a daemon or the striped store, each a vfs.Objects).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	crfs "crfs"
	"crfs/internal/client"
	"crfs/internal/obs"
	"crfs/internal/osfs"
	"crfs/internal/stripe"
	"crfs/internal/vfs"
)

// traceRun is the -trace plumbing: a local tracer recording crfscp's
// own spans, the trace IDs of each operation's root span, and the
// output path. A nil *traceRun is the disabled state — every method is
// a no-op — so call sites need no conditionals.
type traceRun struct {
	tr     *obs.Tracer
	traces []obs.TraceID
	file   string
	out    io.Writer // where the summary line goes
}

func newTraceRun(file string, out io.Writer) *traceRun {
	if file == "" {
		return nil
	}
	tr := obs.New(obs.DefaultRingCapacity)
	tr.SetProcess("crfscp")
	tr.SetEnabled(true)
	return &traceRun{tr: tr, file: file, out: out}
}

// tracer returns the run's tracer, nil when tracing is off (nil
// selects the disabled obs.Default in mount and stripe configs).
func (t *traceRun) tracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// span opens a root span for one operation and remembers its trace ID
// for the final per-node dump collection.
func (t *traceRun) span(name, file string) obs.Span {
	if t == nil {
		return obs.Span{}
	}
	sp := t.tr.Start(name)
	sp.Attr("file", file)
	t.traces = append(t.traces, sp.Context().Trace)
	return sp
}

// write merges crfscp's own spans with each operation trace's spans
// fetched from the participating daemons (dump, nil for local-only
// modes) and writes the whole run as one chrome://tracing document.
func (t *traceRun) write(dump func(obs.TraceID) []obs.SpanRecord) error {
	if t == nil {
		return nil
	}
	recs := t.tr.Snapshot()
	if dump != nil {
		seen := make(map[obs.TraceID]bool)
		for _, id := range t.traces {
			if id == 0 || seen[id] {
				continue
			}
			seen[id] = true
			recs = append(recs, dump(id)...)
		}
	}
	if err := os.WriteFile(t.file, obs.ChromeTrace(recs), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	procs := make(map[string]bool)
	for _, r := range recs {
		procs[r.Proc] = true
	}
	fmt.Fprintf(t.out, "trace: %d spans from %d processes -> %s", len(recs), len(procs), t.file)
	if n := t.tr.Overwritten(); n > 0 {
		fmt.Fprintf(t.out, ", %d spans overwritten", n)
	}
	fmt.Fprintln(t.out)
	return nil
}

// usageError is a wrong argument count for the selected mode: run prints
// the text as is and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// redials is how many times a daemon connection reconnects after a
// transport failure before the operation fails.
const redials = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the selected mode with
// its summaries on stdout, and returns the exit code (0 done, 1 the
// operation failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("crfscp", flag.ContinueOnError)
	fl.SetOutput(stderr)
	chunk := fl.Int64("chunk", crfs.DefaultChunkSize, "CRFS chunk size in bytes")
	pool := fl.Int64("pool", crfs.DefaultBufferPoolSize, "CRFS buffer pool size in bytes")
	threads := fl.Int("threads", crfs.DefaultIOThreads, "CRFS IO threads")
	bs := fl.Int("bs", 8192, "copy block size (simulates small checkpoint writes)")
	codecName := fl.String("codec", "raw", "chunk codec: "+strings.Join(crfs.CodecNames(), "|"))
	restore := fl.Bool("restore", false, "restore direction: read SRC files through a CRFS mount, write plain copies to DSTDIR")
	serverAddr := fl.String("server", "", "copy to/from a crfsd daemon at this address instead of a local mount")
	nodesList := fl.String("nodes", "", "comma-separated crfsd addresses, each host:port or id=host:port: stripe across these daemons instead of a single server")
	replicas := fl.Int("replicas", stripe.DefaultReplicas, "with -nodes: copies of each chunk")
	stripeChunk := fl.Int64("stripe-chunk", stripe.DefaultChunkSize, "with -nodes: stripe unit in bytes")
	scrub := fl.Bool("scrub", false, "with -nodes: verify every replica against its manifest fingerprint and repair bad copies; with -server: have the daemon verify every stored frame, exit 1 on defects")
	traceFile := fl.String("trace", "", "write a chrome://tracing JSON of the whole operation — crfscp's spans merged with every participating daemon's — to this file")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	args = fl.Args()
	trun := newTraceRun(*traceFile, stdout)
	var err error
	switch {
	case *nodesList != "":
		err = striped(stdout, stderr, strings.Split(*nodesList, ","), *restore, *scrub, stripe.Config{
			ChunkSize: *stripeChunk, Replicas: *replicas, Tracer: trun.tracer(),
		}, args, *bs, trun)
	case *serverAddr != "":
		err = remote(stdout, *serverAddr, *restore, *scrub, args, *bs, trun)
	case *scrub:
		err = usageError("usage: crfscp -server host:port -scrub\n" +
			"       crfscp -nodes a:9000,b:9000,... -scrub          (a local directory is scrubbed by crfsck)")
	case len(args) < 2:
		err = usageError("usage: crfscp [flags] SRC... DSTDIR")
	default:
		opts := crfs.Options{
			ChunkSize: *chunk, BufferPoolSize: *pool, IOThreads: *threads, Tracer: trun.tracer(),
		}
		if !*restore {
			opts.Codec, err = crfs.LookupCodec(*codecName)
		}
		if err == nil {
			err = local(stdout, *restore, args, *bs, opts, trun)
		}
	}
	var usage usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &usage):
		fmt.Fprintln(stderr, usage)
		return 2
	}
	fmt.Fprintln(stderr, "crfscp:", err)
	return 1
}

// local copies into a CRFS mount over DSTDIR, or restores through a
// CRFS mount over each source's directory. Mounts are shared per source
// directory, so the per-mount stats aggregate all files restored from
// that directory.
func local(stdout io.Writer, restore bool, args []string, bs int, opts crfs.Options, trun *traceRun) error {
	srcs, dst := args[:len(args)-1], args[len(args)-1]
	if restore {
		mounts := make(map[string]*crfs.FS)
		defer func() {
			for _, fs := range mounts {
				fs.Unmount()
			}
		}()
		total, el, err := restoreFiles(srcs, dst, bs, "restore", trun, func(src string) (vfs.Objects, string, error) {
			dir := filepath.Dir(src)
			fs, ok := mounts[dir]
			if !ok {
				var err error
				if fs, err = crfs.MountDir(dir, opts); err != nil {
					return nil, "", err
				}
				mounts[dir] = fs
			}
			return vfs.Tree{FS: fs}, filepath.Base(src), nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "restored %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
		for dir, fs := range mounts {
			delete(mounts, dir)
			if err := fs.Unmount(); err != nil {
				return err
			}
			st := fs.Stats()
			var hitPct float64
			if lookups := st.PrefetchHits + st.PrefetchMisses; lookups > 0 {
				hitPct = 100 * float64(st.PrefetchHits) / float64(lookups)
			}
			fmt.Fprintf(stdout, "%s: reads=%d bytes=%d, prefetch: hits=%d misses=%d (%.1f%% hit) wasted=%d bytes=%d\n",
				dir, st.Reads, st.BytesRead, st.PrefetchHits, st.PrefetchMisses, hitPct, st.PrefetchWasted, st.PrefetchedBytes)
			if st.ContainersSalvaged > 0 {
				fmt.Fprintf(stdout, "%s: recovery: scanned=%d salvaged=%d frames-dropped=%d bytes-truncated=%d failed-chunks=%d\n",
					dir, st.ContainersScanned, st.ContainersSalvaged,
					st.SalvageFramesDropped, st.SalvageBytesTruncated, st.FailedChunks)
			}
		}
		return trun.write(nil)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	fs, err := crfs.MountDir(dst, opts)
	if err != nil {
		return err
	}
	total, el, err := putFiles(vfs.Tree{FS: fs}, srcs, bs, "copy", trun)
	if uerr := fs.Unmount(); err == nil {
		err = uerr
	}
	if err != nil {
		return err
	}
	st := fs.Stats()
	fmt.Fprintf(stdout, "copied %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
	fmt.Fprintf(stdout, "app writes: %d, backend writes: %d (aggregation %.1fx), pool waits: %d\n",
		st.Writes, st.BackendWrites, st.AggregationRatio(), st.PoolWaits)
	if st.Frames > 0 {
		fmt.Fprintf(stdout, "codec: in=%d out=%d ratio=%.2fx frames=%d raw-frames=%d\n",
			st.CodecBytesIn, st.CodecBytesOut, st.CompressionRatio(), st.Frames, st.RawFrames)
	}
	return trun.write(nil)
}

// remote moves files to or from a crfsd daemon, or has it scrub its
// store, on one persistent protocol-v2 connection.
func remote(stdout io.Writer, addr string, restore, scrub bool, args []string, bs int, trun *traceRun) error {
	if scrub != (len(args) == 0) || (restore && (scrub || len(args) < 2)) {
		return usageError("usage: crfscp -server host:port SRC...\n" +
			"       crfscp -server host:port -restore NAME... DSTDIR\n" +
			"       crfscp -server host:port -scrub")
	}
	c, err := client.Dial(addr, client.Config{Redials: redials})
	if err != nil {
		return err
	}
	defer c.Close()
	switch {
	case scrub:
		line, err := c.Scrub()
		if err != nil {
			return fmt.Errorf("SCRUB: %w", err)
		}
		fmt.Fprintln(stdout, line)
		if !strings.Contains(line, " clean=true") {
			return fmt.Errorf("scrub on %s found defects", addr)
		}
	case restore:
		total, el, err := restoreFiles(args[:len(args)-1], args[len(args)-1], bs, "GET", trun, from(c))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fetched %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
	default:
		total, el, err := putFiles(c, args, bs, "PUT", trun)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "uploaded %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
		if line, err := c.Stat(); err == nil {
			fmt.Fprintln(stdout, line)
		}
	}
	// A daemon without trace support contributes no spans.
	return trun.write(func(id obs.TraceID) []obs.SpanRecord {
		recs, _ := c.TraceDump(id)
		return recs
	})
}

// striped moves checkpoints through the striped multi-node store:
// chunks fan out to (and stream back from) every listed daemon in
// parallel, with replication and manifest fingerprints carrying the
// durability story.
func striped(stdout, stderr io.Writer, addrs []string, restore, scrub bool, cfg stripe.Config, args []string, bs int, trun *traceRun) error {
	if !scrub && (len(args) < 1 || (restore && len(args) < 2)) {
		return usageError("usage: crfscp -nodes a:9000,b:9000,... SRC...          (a node is host:port or id=host:port)\n" +
			"       crfscp -nodes a:9000,b:9000,... -restore NAME... DSTDIR\n" +
			"       crfscp -nodes a:9000,b:9000,... -scrub")
	}
	nodes := make([]stripe.Node, 0, len(addrs))
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		// "id=host:port" names the node; a bare address is its own name.
		id := addr
		if name, rest, ok := strings.Cut(addr, "="); ok {
			if name == "" {
				return fmt.Errorf("crfscp: -nodes entry %q: empty node id", addr)
			}
			id, addr = name, rest
		}
		n, err := stripe.DialNodeID(id, addr, redials)
		if err != nil {
			// An unreachable node must not fail the whole operation:
			// surviving replicas are exactly what replication buys.
			// New puts place only on the nodes that answered.
			fmt.Fprintf(stderr, "crfscp: node %s unreachable, continuing without it: %v\n", addr, err)
			continue
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return fmt.Errorf("crfscp: no stripe nodes reachable")
	}
	s := stripe.New(cfg, nodes...)
	switch {
	case scrub:
		start := time.Now()
		rep, err := s.Scrub()
		fmt.Fprintf(stdout, "scrub over %d nodes in %.3fs: %s\n", len(nodes), time.Since(start).Seconds(), rep)
		if err != nil {
			return err
		}
	case restore:
		total, el, err := restoreFiles(args[:len(args)-1], args[len(args)-1], bs, "striped GET", trun, from(s))
		if err != nil {
			return err
		}
		st := s.Stats()
		fmt.Fprintf(stdout, "restored %d bytes from %d nodes in %.3fs (%.1f MB/s)\n", total, len(nodes), el, float64(total)/el/(1<<20))
		fmt.Fprintf(stdout, "chunks=%d fallbacks=%d checksum_failures=%d\n", st.ChunksGot, st.ReplicaFallbacks, st.ChecksumFailed)
	default:
		total, el, err := putFiles(s, args, bs, "striped PUT", trun)
		if err != nil {
			return err
		}
		st := s.Stats()
		fmt.Fprintf(stdout, "striped %d bytes to %d nodes in %.3fs (%.1f MB/s)\n", total, len(nodes), el, float64(total)/el/(1<<20))
		fmt.Fprintf(stdout, "chunk replicas=%d replica bytes=%d\n", st.ChunksPut, st.BytesPut)
	}
	return trun.write(s.TraceDumps)
}

// putFiles puts each source file into objs under its base name, and
// returns the bytes put and the seconds taken. verb names the operation
// in errors.
func putFiles(objs vfs.Objects, srcs []string, bs int, verb string, trun *traceRun) (int64, float64, error) {
	start := time.Now()
	var total int64
	for _, src := range srcs {
		in, err := os.Open(src)
		if err != nil {
			return total, 0, err
		}
		info, err := in.Stat()
		if err == nil {
			sp := trun.span("crfscp.put", src)
			err = vfs.PutTraced(objs, filepath.Base(src), source{in, bs}, info.Size(), sp.Context())
			sp.End()
		}
		in.Close()
		if err != nil {
			return total, 0, fmt.Errorf("%s %s: %w", verb, src, err)
		}
		total += info.Size()
	}
	return total, time.Since(start).Seconds(), nil
}

// restoreFiles writes each name, fetched from the store at(name) gives,
// to a file of its base name in dst, and returns the bytes restored and
// the seconds taken. Each file is replaced crash-safely (vfs.Replace):
// a restore that fails leaves the previous copy as it was.
func restoreFiles(names []string, dst string, bs int, verb string, trun *traceRun, at func(string) (vfs.Objects, string, error)) (int64, float64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, 0, err
	}
	out, err := osfs.New(dst)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	var total int64
	for _, name := range names {
		objs, key, err := at(name)
		if err != nil {
			return total, 0, err
		}
		sp := trun.span("crfscp.get", name)
		err = vfs.Replace(out, filepath.Base(name), func(f vfs.File) error {
			n, err := vfs.GetTraced(objs, key, sink{io.NewOffsetWriter(f, 0), bs}, sp.Context())
			total += n
			return err
		})
		sp.End()
		if err != nil {
			return total, 0, fmt.Errorf("%s %s: %w", verb, name, err)
		}
	}
	return total, time.Since(start).Seconds(), nil
}

// from is the at of restoreFiles for a store holding every name.
func from(objs vfs.Objects) func(string) (vfs.Objects, string, error) {
	return func(name string) (vfs.Objects, string, error) { return objs, name, nil }
}

// source is a file being put. A writer that reads for itself (a
// daemon's frame sink, the stripe's chunker) is given the file; any
// other (a mount's temp) gets it in bs-sized writes, the checkpoint
// write size a local copy simulates.
type source struct {
	f  *os.File
	bs int
}

func (s source) Read(p []byte) (int, error) { return s.f.Read(p) }

func (s source) WriteTo(w io.Writer) (int64, error) {
	if rf, ok := w.(io.ReaderFrom); ok {
		return rf.ReadFrom(s.f)
	}
	return io.CopyBuffer(w, struct{ io.Reader }{s.f}, make([]byte, s.bs))
}

// sink is a restored file's writer. A mount hands it a reader, which it
// reads in bs-sized ReadAt calls, the restart read size a local restore
// simulates; a daemon or the stripe writes it whole frames and chunks.
type sink struct {
	io.Writer
	bs int
}

func (s sink) ReadFrom(r io.Reader) (int64, error) {
	return io.CopyBuffer(s.Writer, struct{ io.Reader }{r}, make([]byte, s.bs))
}
