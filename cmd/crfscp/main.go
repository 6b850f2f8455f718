// Command crfscp copies files into a directory through a CRFS mount,
// demonstrating the real library on real storage: many small source reads
// become few large aggregated writes on the destination filesystem.
//
// Usage:
//
//	crfscp [-chunk 4194304] [-pool 16777216] [-threads 4] [-bs 8192] [-codec raw|deflate] SRC... DSTDIR
//	crfscp -restore [-repair] SRC... DSTDIR
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
// -repair enables crash recovery on open: a frame container with a torn
// tail (a power cut mid-checkpoint) is truncated to its longest intact
// frame prefix instead of being re-salvaged on every mount.
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
// decoding frame containers transparently, with the next chunks/frames
// prefetched in parallel on the IO workers — and written to DSTDIR as a
// plain file.
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
	"crfs/internal/stripe"
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

// setSpanContext plants a trace context on a mount file handle so the
// core pipeline's spans join the operation's trace.
func setSpanContext(f crfs.File, ctx obs.SpanContext) {
	if !ctx.Valid() {
		return
	}
	if t, ok := f.(interface{ SetSpanContext(obs.SpanContext) }); ok {
		t.SetSpanContext(ctx)
	}
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
	repair := fl.Bool("repair", false, "truncate torn frame containers to their intact prefix on first open (crash recovery)")
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
		err = stripedMode(stdout, stderr, strings.Split(*nodesList, ","), *restore, *scrub, stripe.Config{
			ChunkSize: *stripeChunk, Replicas: *replicas, Tracer: trun.tracer(),
		}, args, trun)
	case *serverAddr != "":
		err = serverMode(stdout, *serverAddr, *restore, *scrub, args, trun)
	case *scrub:
		err = usageError("usage: crfscp -server host:port -scrub\n" +
			"       crfscp -nodes a:9000,b:9000,... -scrub          (a local directory is scrubbed by crfsck)")
	case len(args) < 2:
		err = usageError("usage: crfscp [flags] SRC... DSTDIR")
	default:
		opts := crfs.Options{
			ChunkSize: *chunk, BufferPoolSize: *pool, IOThreads: *threads,
			RepairOnOpen: *repair, Tracer: trun.tracer(),
		}
		srcs, dst := args[:len(args)-1], args[len(args)-1]
		if *restore {
			opts.ReadAhead = crfs.RestoreReadAhead
			err = restoreAll(stdout, srcs, dst, *bs, opts, trun)
		} else if opts.Codec, err = crfs.LookupCodec(*codecName); err == nil {
			err = copyAll(stdout, srcs, dst, *bs, opts, trun)
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

// copyAll copies each src into a CRFS mount over dst.
func copyAll(stdout io.Writer, srcs []string, dst string, bs int, opts crfs.Options, trun *traceRun) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	fs, err := crfs.MountDir(dst, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	var total int64
	for _, src := range srcs {
		sp := trun.span("crfscp.copy", src)
		n, err := copyOne(fs, src, bs, sp.Context())
		sp.End()
		if err != nil {
			fs.Unmount()
			return err
		}
		total += n
	}
	if err := fs.Unmount(); err != nil {
		return err
	}
	if err := trun.write(nil); err != nil {
		return err
	}
	el := time.Since(start).Seconds()
	st := fs.Stats()
	fmt.Fprintf(stdout, "copied %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
	fmt.Fprintf(stdout, "app writes: %d, backend writes: %d (aggregation %.1fx), pool waits: %d\n",
		st.Writes, st.BackendWrites, st.AggregationRatio(), st.PoolWaits)
	if st.Frames > 0 {
		fmt.Fprintf(stdout, "codec: in=%d out=%d ratio=%.2fx frames=%d raw-frames=%d\n",
			st.CodecBytesIn, st.CodecBytesOut, st.CompressionRatio(), st.Frames, st.RawFrames)
	}
	return nil
}

func copyOne(fs *crfs.FS, src string, bs int, ctx obs.SpanContext) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := fs.Open(filepath.Base(src), crfs.WriteOnly|crfs.Create|crfs.Trunc)
	if err != nil {
		return 0, err
	}
	setSpanContext(out, ctx)
	buf := make([]byte, bs)
	var off int64
	for {
		n, err := in.Read(buf)
		if n > 0 {
			if _, werr := out.WriteAt(buf[:n], off); werr != nil {
				out.Close()
				return off, werr
			}
			off += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			out.Close()
			return off, err
		}
	}
	return off, out.Close()
}

// restoreAll copies each src out of a CRFS mount over its directory into
// dst as a plain file. Mounts are shared per source directory, so the
// per-mount stats aggregate all files restored from that directory.
func restoreAll(stdout io.Writer, srcs []string, dst string, bs int, opts crfs.Options, trun *traceRun) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	mounts := make(map[string]*crfs.FS)
	defer func() {
		for _, fs := range mounts {
			fs.Unmount()
		}
	}()
	start := time.Now()
	var total int64
	for _, src := range srcs {
		dir := filepath.Dir(src)
		fs, ok := mounts[dir]
		if !ok {
			var err error
			fs, err = crfs.MountDir(dir, opts)
			if err != nil {
				return err
			}
			mounts[dir] = fs
		}
		sp := trun.span("crfscp.restore", src)
		n, err := restoreOne(fs, filepath.Base(src), filepath.Join(dst, filepath.Base(src)), bs, sp.Context())
		sp.End()
		if err != nil {
			return err
		}
		total += n
	}
	el := time.Since(start).Seconds()
	fmt.Fprintf(stdout, "restored %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
	for dir, fs := range mounts {
		if err := fs.Unmount(); err != nil {
			delete(mounts, dir)
			return err
		}
		delete(mounts, dir)
		st := fs.Stats()
		var hitPct float64
		if lookups := st.PrefetchHits + st.PrefetchMisses; lookups > 0 {
			hitPct = 100 * float64(st.PrefetchHits) / float64(lookups)
		}
		fmt.Fprintf(stdout, "%s: reads=%d bytes=%d, prefetch: hits=%d misses=%d (%.1f%% hit) wasted=%d bytes=%d\n",
			dir, st.Reads, st.BytesRead, st.PrefetchHits, st.PrefetchMisses, hitPct, st.PrefetchWasted, st.PrefetchedBytes)
		if st.ContainersSalvaged > 0 || st.ContainersRepaired > 0 {
			fmt.Fprintf(stdout, "%s: recovery: scanned=%d salvaged=%d repaired=%d frames-dropped=%d bytes-truncated=%d failed-chunks=%d\n",
				dir, st.ContainersScanned, st.ContainersSalvaged, st.ContainersRepaired,
				st.SalvageFramesDropped, st.SalvageBytesTruncated, st.FailedChunks)
		}
	}
	return trun.write(nil)
}

// restoreOne streams one file out of the mount into a plain destination
// file with sequential bs-sized reads — the access pattern the restart
// read pipeline accelerates.
func restoreOne(fs *crfs.FS, name, dst string, bs int, ctx obs.SpanContext) (int64, error) {
	in, err := fs.Open(name, crfs.ReadOnly)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	setSpanContext(in, ctx)
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, bs)
	var off int64
	for {
		n, rerr := in.ReadAt(buf, off)
		if n > 0 {
			if _, werr := out.Write(buf[:n]); werr != nil {
				out.Close()
				return off, werr
			}
			off += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			out.Close()
			return off, rerr
		}
	}
	return off, out.Close()
}

// serverMode moves files over the wire to/from a crfsd daemon on one
// persistent protocol-v2 connection.
func serverMode(stdout io.Writer, addr string, restore, scrub bool, args []string, trun *traceRun) error {
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
	if scrub {
		line, err := c.Scrub()
		if err != nil {
			return fmt.Errorf("SCRUB: %w", err)
		}
		fmt.Fprintln(stdout, line)
		if !strings.Contains(line, " clean=true") {
			return fmt.Errorf("scrub on %s found defects", addr)
		}
		return trun.write(clientDump(c))
	}
	start := time.Now()
	var total int64
	if restore {
		dst := args[len(args)-1]
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		for _, name := range args[:len(args)-1] {
			out, err := os.Create(filepath.Join(dst, filepath.Base(name)))
			if err != nil {
				return err
			}
			sp := trun.span("crfscp.get", name)
			n, err := c.GetTraced(name, out, sp.Context())
			sp.End()
			if cerr := out.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("GET %s: %w", name, err)
			}
			total += n
		}
		el := time.Since(start).Seconds()
		fmt.Fprintf(stdout, "fetched %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
		return trun.write(clientDump(c))
	}
	for _, src := range args {
		in, err := os.Open(src)
		if err != nil {
			return err
		}
		info, err := in.Stat()
		if err != nil {
			in.Close()
			return err
		}
		sp := trun.span("crfscp.put", src)
		err = c.PutTraced(filepath.Base(src), in, info.Size(), sp.Context())
		sp.End()
		in.Close()
		if err != nil {
			return fmt.Errorf("PUT %s: %w", src, err)
		}
		total += info.Size()
	}
	el := time.Since(start).Seconds()
	fmt.Fprintf(stdout, "uploaded %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
	if line, err := c.Stat(); err == nil {
		fmt.Fprintln(stdout, line)
	}
	return trun.write(clientDump(c))
}

// clientDump adapts a single-daemon client to the traceRun dump shape;
// a daemon without trace support contributes nothing.
func clientDump(c *client.Client) func(obs.TraceID) []obs.SpanRecord {
	return func(id obs.TraceID) []obs.SpanRecord {
		recs, err := c.TraceDump(id)
		if err != nil {
			return nil
		}
		return recs
	}
}

// stripedMode moves checkpoints through the striped multi-node store:
// chunks fan out to (and stream back from) every listed daemon in
// parallel, with replication and manifest fingerprints carrying the
// durability story.
func stripedMode(stdout, stderr io.Writer, addrs []string, restore, scrub bool, cfg stripe.Config, args []string, trun *traceRun) error {
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

	start := time.Now()
	if scrub {
		rep, err := s.Scrub()
		fmt.Fprintf(stdout, "scrub over %d nodes in %.3fs: %s\n", len(nodes), time.Since(start).Seconds(), rep)
		if err == nil {
			err = trun.write(s.TraceDumps)
		}
		return err
	}
	var total int64
	if restore {
		dst := args[len(args)-1]
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		for _, name := range args[:len(args)-1] {
			out, err := os.Create(filepath.Join(dst, filepath.Base(name)))
			if err != nil {
				return err
			}
			sp := trun.span("crfscp.get", name)
			n, err := s.GetTraced(name, out, sp.Context())
			sp.End()
			if cerr := out.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("striped GET %s: %w", name, err)
			}
			total += n
		}
		el := time.Since(start).Seconds()
		st := s.Stats()
		fmt.Fprintf(stdout, "restored %d bytes from %d nodes in %.3fs (%.1f MB/s)\n", total, len(nodes), el, float64(total)/el/(1<<20))
		fmt.Fprintf(stdout, "chunks=%d fallbacks=%d checksum_failures=%d\n", st.ChunksGot, st.ReplicaFallbacks, st.ChecksumFailed)
		return trun.write(s.TraceDumps)
	}
	for _, src := range args {
		in, err := os.Open(src)
		if err != nil {
			return err
		}
		info, err := in.Stat()
		if err != nil {
			in.Close()
			return err
		}
		sp := trun.span("crfscp.put", src)
		err = s.PutTraced(filepath.Base(src), in, info.Size(), sp.Context())
		sp.End()
		in.Close()
		if err != nil {
			return fmt.Errorf("striped PUT %s: %w", src, err)
		}
		total += info.Size()
	}
	el := time.Since(start).Seconds()
	st := s.Stats()
	fmt.Fprintf(stdout, "striped %d bytes to %d nodes in %.3fs (%.1f MB/s)\n", total, len(nodes), el, float64(total)/el/(1<<20))
	fmt.Fprintf(stdout, "chunk replicas=%d replica bytes=%d\n", st.ChunksPut, st.BytesPut)
	return trun.write(s.TraceDumps)
}
