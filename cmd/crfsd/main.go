// Command crfsd serves a CRFS mount over TCP: remote checkpoint writers
// stream their images to the daemon, which aggregates them through CRFS
// before they reach the backing directory. It plays the role a
// CRFS-mounted staging node plays in the paper's deployment.
//
// Connections carry the framed, multiplexed protocol v2 (see
// internal/server): a persistent connection serves many concurrent
// requests, PUT bodies stream straight into the CRFS write pipeline
// under backpressure, and a failed or abandoned PUT never leaves a
// partial file visible under the target name. A connection that does
// not open with the protocol hello is refused with one ERR line.
//
// The daemon is shaped for heavy concurrent traffic: a global
// connection cap, a per-connection in-flight request cap, read/write
// deadlines that reap stalled clients, accept-loop backoff, and a
// graceful drain on SIGTERM/SIGINT — stop accepting, finish in-flight
// requests, close the filesystem, exit 0.
//
// With -trace the daemon records spans for every request and every
// stage of the IO pipeline into an in-memory ring, joined to the
// client's trace when the request line carries a propagated trace ID;
// clients fetch the ring with the TRACE verb (crfscp -trace merges the
// dumps of a whole striped store into one chrome://tracing file).
// -debug-addr is the daemon's one HTTP listener: /metrics (the full
// Stats tree plus latency histograms in Prometheus text format),
// /debug/pprof/ (CPU, heap, contention profiles), and /debug/trace (the
// ring as a chrome://tracing document). -slow-ms logs any traced request
// slower than the threshold with its full span tree.
//
// A PUT is staged in a fresh file written once, front to back, so a
// daemon's containers hold no dead frames; compaction is offline work
// (crfsck -compact, for containers rewritten in place by other mounts).
// The SCRUB verb (crfscp -server ADDR -scrub) runs crfsck's verifier
// over the store's directory and only reports; crfsck -repair repairs.
//
// Usage:
//
//	crfsd -dir /scratch/ckpt -addr :9000 -debug-addr 127.0.0.1:9100
//	crfsd -dir /scratch/ckpt -codec deflate
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	crfs "crfs"
	"crfs/internal/obs"
	"crfs/internal/server"
)

// drainTimeout is how long a graceful shutdown waits for in-flight
// requests before tearing their connections down.
const drainTimeout = 30 * time.Second

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(os.Args[1:], stop))
}

// run is the whole command: it serves until a signal arrives on stop or
// the accept loop fails, and returns the exit code (0 drained cleanly, 1
// a startup, serve or unmount failure, 2 usage). Whatever it mounted or
// bound it releases before returning.
func run(args []string, stop <-chan os.Signal) (code int) {
	fl := flag.NewFlagSet("crfsd", flag.ContinueOnError)
	fl.SetOutput(log.Writer())
	dir := fl.String("dir", ".", "backing directory")
	addr := fl.String("addr", "127.0.0.1:9000", "listen address")
	chunk := fl.Int64("chunk", crfs.DefaultChunkSize, "chunk size")
	pool := fl.Int64("pool", crfs.DefaultBufferPoolSize, "buffer pool size")
	threads := fl.Int("threads", crfs.DefaultIOThreads, "IO threads")
	codecName := fl.String("codec", "raw", "chunk codec: "+strings.Join(crfs.CodecNames(), "|"))
	debugAddr := fl.String("debug-addr", "", "serve live introspection on this address: /metrics, /debug/pprof/, /debug/trace (empty disables)")
	trace := fl.Bool("trace", false, "record pipeline and request spans into the in-memory trace ring")
	slowMS := fl.Int("slow-ms", 0, "log any traced request slower than this many milliseconds, with its span tree (0 disables)")
	maxConns := fl.Int("max-conns", server.DefaultMaxConns, "cap on concurrently served connections")
	maxPutBytes := fl.Int64("max-put-bytes", 0, "reject PUTs declaring a larger body (0 = unlimited)")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cdc, err := crfs.LookupCodec(*codecName)
	if err != nil {
		log.Print(err)
		return 1
	}
	// One tracer spans the whole daemon: the mount's IO pipeline and the
	// server's request handling land in the same ring, so a TRACE dump
	// (or /debug/trace) shows a request end to end.
	tr := obs.New(obs.DefaultRingCapacity)
	tr.SetProcess("crfsd:" + *addr)
	tr.SetEnabled(*trace)
	if *slowMS > 0 {
		tr.SetSlowThreshold(time.Duration(*slowMS) * time.Millisecond)
		tr.SetLogf(log.Printf)
	}
	fs, err := crfs.MountDir(*dir, crfs.Options{
		ChunkSize: *chunk, BufferPoolSize: *pool, IOThreads: *threads, Codec: cdc, Tracer: tr,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	// Deferred calls run last-in first-out: the listeners below close
	// before the mount under them goes away.
	defer func() {
		if err := fs.Unmount(); err != nil {
			log.Printf("crfsd: unmount: %v", err)
			code = 1
		}
	}()
	srv := server.New(fs, server.Config{
		Tracer:      tr,
		MaxConns:    *maxConns,
		MaxPutBytes: *maxPutBytes,
		Logf:        log.Printf,
	})
	if n, err := srv.SweepStaging(); err != nil {
		log.Printf("crfsd: sweeping staging temps: %v", err)
	} else if n > 0 {
		log.Printf("crfsd: removed %d stale staging temp(s)", n)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer ln.Close() // for the early returns; Shutdown has closed it by then otherwise

	// The debug endpoint is live introspection for a running daemon: the
	// Prometheus exposition (counters + latency histograms), the Go
	// pprof profiles, and the trace ring rendered as a chrome://tracing
	// document.
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(obs.ChromeTrace(tr.Snapshot()))
		})
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Print(err)
			return 1
		}
		dsrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dsrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("crfsd: debug server: %v", err)
			}
		}()
		defer dsrv.Close()
		log.Printf("crfsd: debug on http://%s", dln.Addr())
	}

	log.Printf("crfsd: serving %s on %s (chunk=%d pool=%d threads=%d codec=%s max-conns=%d)",
		*dir, ln.Addr(), *chunk, *pool, *threads, cdc.Name(), *maxConns)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case sig := <-stop:
		log.Printf("crfsd: %v: draining (timeout %v)", sig, drainTimeout)
	case err := <-errc:
		log.Printf("crfsd: serve: %v", err)
		code = 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("crfsd: drain incomplete, connections torn down: %v", err)
	}
	log.Printf("crfsd: drained, exiting")
	return code
}
