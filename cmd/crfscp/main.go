// Command crfscp copies files into a directory through a CRFS mount,
// demonstrating the real library on real storage: many small source reads
// become few large aggregated writes on the destination filesystem.
//
// Usage:
//
//	crfscp [-chunk 4194304] [-pool 16777216] [-threads 4] [-bs 8192] [-codec raw|deflate] SRC... DSTDIR
//	crfscp -restore [-readahead 8] [-repair] SRC... DSTDIR
//	crfscp -server host:9000 SRC...           (upload to a crfsd daemon)
//	crfscp -server host:9000 -restore NAME... DSTDIR
//	crfscp -nodes host1:9000,host2:9000,host3:9000 [-replicas 2] SRC...
//	crfscp -nodes host1:9000,host2:9000,host3:9000 -restore NAME... DSTDIR
//	crfscp -nodes host1:9000,host2:9000,host3:9000 -scrub
//
// -server switches to network mode: sources are streamed to a crfsd
// daemon over one persistent protocol-v2 connection instead of a local
// mount. With -restore, each NAME is fetched from the daemon into
// DSTDIR.
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
// decoding frame containers transparently, with -readahead chunks/frames
// prefetched in parallel on the IO workers — and written to DSTDIR as a
// plain file.
package main

import (
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
}

func newTraceRun(file string) *traceRun {
	if file == "" {
		return nil
	}
	tr := obs.New(obs.DefaultRingCapacity)
	tr.SetProcess("crfscp")
	tr.SetEnabled(true)
	return &traceRun{tr: tr, file: file}
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
	fmt.Printf("trace: %d spans -> %s\n", len(recs), t.file)
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

func main() {
	chunk := flag.Int64("chunk", crfs.DefaultChunkSize, "CRFS chunk size in bytes")
	pool := flag.Int64("pool", crfs.DefaultBufferPoolSize, "CRFS buffer pool size in bytes")
	threads := flag.Int("threads", crfs.DefaultIOThreads, "CRFS IO threads")
	bs := flag.Int("bs", 8192, "copy block size (simulates small checkpoint writes)")
	codecName := flag.String("codec", "raw", "chunk codec: "+strings.Join(crfs.CodecNames(), "|"))
	restore := flag.Bool("restore", false, "restore direction: read SRC files through a CRFS mount, write plain copies to DSTDIR")
	readAhead := flag.Int("readahead", 8, "with -restore: read-ahead depth in chunks/frames (0 disables)")
	repair := flag.Bool("repair", false, "truncate torn frame containers to their intact prefix on first open (crash recovery)")
	serverAddr := flag.String("server", "", "copy to/from a crfsd daemon at this address instead of a local mount")
	nodesList := flag.String("nodes", "", "comma-separated crfsd addresses, each host:port or id=host:port: stripe across these daemons instead of a single server")
	replicas := flag.Int("replicas", stripe.DefaultReplicas, "with -nodes: copies of each chunk")
	stripeChunk := flag.Int64("stripe-chunk", stripe.DefaultChunkSize, "with -nodes: stripe unit in bytes")
	scrub := flag.Bool("scrub", false, "with -nodes: verify every replica against its manifest fingerprint and repair bad copies")
	redials := flag.Int("redials", 2, "network modes: automatic reconnects per daemon connection")
	traceFile := flag.String("trace", "", "write a chrome://tracing JSON of the whole operation — crfscp's spans merged with every participating daemon's — to this file")
	flag.Parse()
	args := flag.Args()
	trun := newTraceRun(*traceFile)
	if *nodesList != "" {
		err := stripedMode(strings.Split(*nodesList, ","), *restore, *scrub, stripe.Config{
			ChunkSize: *stripeChunk, Replicas: *replicas, Tracer: trun.tracer(),
		}, *redials, args, trun)
		if err != nil {
			fatal(err)
		}
		return
	}
	if *serverAddr != "" {
		if err := serverMode(*serverAddr, *restore, *redials, args, trun); err != nil {
			fatal(err)
		}
		return
	}
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: crfscp [flags] SRC... DSTDIR")
		os.Exit(2)
	}
	dst := args[len(args)-1]
	srcs := args[:len(args)-1]
	if err := os.MkdirAll(dst, 0o755); err != nil {
		fatal(err)
	}
	if *restore {
		if err := restoreAll(srcs, dst, *bs, *chunk, *pool, *threads, *readAhead, *repair, trun); err != nil {
			fatal(err)
		}
		return
	}
	cdc, err := crfs.LookupCodec(*codecName)
	if err != nil {
		fatal(err)
	}
	fs, err := crfs.MountDir(dst, crfs.Options{
		ChunkSize: *chunk, BufferPoolSize: *pool, IOThreads: *threads, Codec: cdc,
		RepairOnOpen: *repair, Tracer: trun.tracer(),
	})
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	var total int64
	for _, src := range srcs {
		sp := trun.span("crfscp.copy", src)
		n, err := copyOne(fs, src, *bs, sp.Context())
		sp.End()
		if err != nil {
			fs.Unmount()
			fatal(err)
		}
		total += n
	}
	if err := fs.Unmount(); err != nil {
		fatal(err)
	}
	if err := trun.write(nil); err != nil {
		fatal(err)
	}
	el := time.Since(start).Seconds()
	st := fs.Stats()
	fmt.Printf("copied %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
	fmt.Printf("app writes: %d, backend writes: %d (aggregation %.1fx), pool waits: %d\n",
		st.Writes, st.BackendWrites, st.AggregationRatio(), st.PoolWaits)
	if cs := st.Codec(); cs.Frames > 0 {
		fmt.Println(cs.Format())
	}
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
func restoreAll(srcs []string, dst string, bs int, chunk, pool int64, threads, readAhead int, repair bool, trun *traceRun) error {
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
			fs, err = crfs.MountDir(dir, crfs.Options{
				ChunkSize: chunk, BufferPoolSize: pool, IOThreads: threads, ReadAhead: readAhead,
				RepairOnOpen: repair, Tracer: trun.tracer(),
			})
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
	fmt.Printf("restored %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
	for dir, fs := range mounts {
		if err := fs.Unmount(); err != nil {
			delete(mounts, dir)
			return err
		}
		delete(mounts, dir)
		st := fs.Stats()
		fmt.Printf("%s: reads=%d bytes=%d, %s\n", dir, st.Reads, st.BytesRead, st.Prefetch().Format())
		if rc := st.Recovery(); rc.Salvaged > 0 || rc.Repaired > 0 {
			fmt.Printf("%s: %s\n", dir, rc.Format())
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
func serverMode(addr string, restore bool, redials int, args []string, trun *traceRun) error {
	if len(args) < 1 || (restore && len(args) < 2) {
		fmt.Fprintln(os.Stderr, "usage: crfscp -server host:port SRC...")
		fmt.Fprintln(os.Stderr, "       crfscp -server host:port -restore NAME... DSTDIR")
		os.Exit(2)
	}
	c, err := client.Dial(addr, client.Config{Redials: redials})
	if err != nil {
		return err
	}
	defer c.Close()
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
		fmt.Printf("fetched %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
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
	fmt.Printf("uploaded %d bytes in %.3fs (%.1f MB/s)\n", total, el, float64(total)/el/(1<<20))
	if line, err := c.Stat(); err == nil {
		fmt.Println(line)
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
func stripedMode(addrs []string, restore, scrub bool, cfg stripe.Config, redials int, args []string, trun *traceRun) error {
	if !scrub && (len(args) < 1 || (restore && len(args) < 2)) {
		fmt.Fprintln(os.Stderr, "usage: crfscp -nodes a:9000,b:9000,... SRC...          (a node is host:port or id=host:port)")
		fmt.Fprintln(os.Stderr, "       crfscp -nodes a:9000,b:9000,... -restore NAME... DSTDIR")
		fmt.Fprintln(os.Stderr, "       crfscp -nodes a:9000,b:9000,... -scrub")
		os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "crfscp: node %s unreachable, continuing without it: %v\n", addr, err)
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
		fmt.Printf("scrub over %d nodes in %.3fs: %s\n", len(nodes), time.Since(start).Seconds(), rep)
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
		fmt.Printf("restored %d bytes from %d nodes in %.3fs (%.1f MB/s)\n", total, len(nodes), el, float64(total)/el/(1<<20))
		fmt.Printf("chunks=%d fallbacks=%d checksum_failures=%d\n", st.ChunksGot, st.ReplicaFallbacks, st.ChecksumFailed)
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
	fmt.Printf("striped %d bytes to %d nodes in %.3fs (%.1f MB/s)\n", total, len(nodes), el, float64(total)/el/(1<<20))
	fmt.Printf("chunk replicas=%d replica bytes=%d\n", st.ChunksPut, st.BytesPut)
	return trun.write(s.TraceDumps)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crfscp:", err)
	os.Exit(1)
}
