package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	crfs "crfs"
	"crfs/internal/client"
	"crfs/internal/codec"
	"crfs/internal/memfs"
	"crfs/internal/osfs"
	"crfs/internal/vfs"
)

// coreCounts are the fs.Stats() counters the ladder reads, summed over a
// load's mounts.
type coreCounts struct {
	writes, backendWrites, poolWaits    int64
	codecIn, codecOut, frames, rawFrame int64
	prefHits, prefMisses, prefWasted    int64
}

func readCore(mounts []*crfs.FS) (c coreCounts) {
	for _, fs := range mounts {
		s := fs.Stats()
		c.writes += s.Writes
		c.backendWrites += s.BackendWrites
		c.poolWaits += s.PoolWaits
		c.codecIn += s.CodecBytesIn
		c.codecOut += s.CodecBytesOut
		c.frames += s.Frames
		c.rawFrame += s.RawFrames
		c.prefHits += s.PrefetchHits
		c.prefMisses += s.PrefetchMisses
		c.prefWasted += s.PrefetchWasted
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns what the wrappers, the call probes and the
// libraries' own Stats() counted over the measured cycles of a traced
// pass into the per-layer metrics. before is readCore at their start.
func layerMetrics(l load, p *pass, before coreCounts) map[string]float64 {
	b := l.base()
	n := float64(p.cycles)
	userGiB := float64(p.userBytes) * n / gib // checkpointed, and restored
	movedMiB := 2 * userGiB * 1024
	m := map[string]float64{
		"osfs.write_calls_per_gib":       float64(b.fsc.writeCalls.Load()) / userGiB,
		"osfs.write_mean_kib":            ratio(float64(b.fsc.writeBytes.Load())/1024, float64(b.fsc.writeCalls.Load())),
		"osfs.write_busy_s_per_gib":      float64(b.fsc.writeNs.Load()) / 1e9 / userGiB,
		"osfs.write_bytes_per_user_byte": float64(b.fsc.writeBytes.Load()) / (userGiB * gib),
		"osfs.read_calls_per_gib":        float64(b.fsc.readCalls.Load()) / userGiB,
		"osfs.read_busy_s_per_gib":       float64(b.fsc.readNs.Load()) / 1e9 / userGiB,
		"osfs.read_bytes_per_user_byte":  float64(b.fsc.readBytes.Load()) / (userGiB * gib),
		"osfs.meta_calls_per_op":         float64(b.fsc.metaCalls.Load()) / float64(p.ops),
	}

	c := readCore(b.mounts)
	m["codec.ratio"] = ratio(float64(c.codecIn-before.codecIn), float64(c.codecOut-before.codecOut))
	m["codec.raw_bailout_frac"] = ratio(float64(c.rawFrame-before.rawFrame), float64(c.frames-before.frames))
	m["core.aggregation_ratio"] = ratio(float64(c.writes-before.writes), float64(c.backendWrites-before.backendWrites))
	m["core.pool_waits_per_gib"] = float64(c.poolWaits-before.poolWaits) / userGiB
	hits, misses := float64(c.prefHits-before.prefHits), float64(c.prefMisses-before.prefMisses)
	m["core.prefetch_hit_frac"] = ratio(hits, hits+misses)
	m["core.prefetch_wasted_per_gib"] = float64(c.prefWasted-before.prefWasted) / userGiB

	wire := func(puts, gets []float64) {
		m["client.put_call_p50_ms"] = quantile(puts, 0.5) * 1e3
		m["client.put_call_p75_ms"] = quantile(puts, 0.75) * 1e3
		m["client.get_call_p50_ms"] = quantile(gets, 0.5) * 1e3
		m["client.get_call_p75_ms"] = quantile(gets, 0.75) * 1e3
		m["wire.bytes_per_user_byte"] = float64(b.wire.readBytes.Load()+b.wire.writeBytes.Load()) / (movedMiB * mib)
		m["wire.conn_writes_per_mib"] = float64(b.wire.writes.Load()) / movedMiB
		m["wire.conn_reads_per_mib"] = float64(b.wire.reads.Load()) / movedMiB
	}
	switch l := l.(type) {
	case *imageLoad:
		var w, r hist
		var closeNs int64
		for _, pr := range l.probes {
			w.merge(&pr.write)
			r.merge(&pr.read)
			closeNs += pr.closeNs
		}
		m["core.write_call_p50_us"] = float64(w.quantile(0.5)) / 1e3
		m["core.write_call_p99_us"] = float64(w.quantile(0.99)) / 1e3
		m["core.write_busy_s_per_gib"] = float64(w.sum) / 1e9 / userGiB
		m["core.close_wait_s_per_gib"] = float64(closeNs) / 1e9 / userGiB
		m["core.read_call_p50_us"] = float64(r.quantile(0.5)) / 1e3
		m["core.read_call_p99_us"] = float64(r.quantile(0.99)) / 1e3
	case *daemonLoad:
		wire(p.ckpt, p.restore)
		s := l.d.srv.Stats()
		m["server.request_errors"], m["server.puts_aborted"] = float64(s.RequestErrors), float64(s.PutsAborted)
	case *stripeLoad:
		wire(l.nc.putSamples, l.nc.getSamples)
		var reqErrs, aborted int64
		for _, d := range l.daemons {
			s := d.srv.Stats()
			reqErrs, aborted = reqErrs+s.RequestErrors, aborted+s.PutsAborted
		}
		m["server.request_errors"], m["server.puts_aborted"] = float64(reqErrs), float64(aborted)

		var total, most int64
		for _, nb := range l.nc.putBytes {
			total, most = total+nb, max(most, nb)
		}
		m["stripe.node_put_busy_s_per_gib"] = float64(l.nc.putNs) / 1e9 / userGiB
		m["stripe.node_get_busy_s_per_gib"] = float64(l.nc.getNs) / 1e9 / userGiB
		m["stripe.put_mean_inflight"] = float64(l.nc.putNs) / 1e9 / sum(p.ckpt)
		m["stripe.get_mean_inflight"] = float64(l.nc.getNs) / 1e9 / sum(p.restore)
		m["stripe.node_put_bytes_per_user_byte"] = float64(total) / (userGiB * gib)
		m["stripe.node_calls_per_put"] = float64(l.nc.putCalls) / n
		m["stripe.manifest_s_per_put"] = float64(l.nc.manifestPutNs) / 1e9 / n
		m["stripe.node_skew"] = float64(most) / (float64(total) / stripeNodes)
		st := l.store.Stats()
		m["stripe.replica_fallbacks"], m["stripe.checksum_failed"] = float64(st.ReplicaFallbacks), float64(st.ChecksumFailed)
	}
	return m
}

// ---- the ladder: each layer's rung run alone, outside in ----

const (
	rungWarm = 3 * rotation // untimed repetitions of a rung
	rungRuns = 5            // timed ones; the median is reported
)

// rungInput is the part of a workload a rung replays.
type rungInput struct {
	images [][]byte  // one per writer
	sizes  [][]int64 // its write-size stream
	codec  crfs.Codec
}

func (l *imageLoad) rungs() rungInput {
	return rungInput{images: l.images, sizes: l.sizes, codec: l.fs.Options().Codec}
}

// The daemon workloads' rungs below the wire replay the object as one
// writer's BLCR stream, the shape ckpt-blcr-raw gives core.
func objectRungs(obj []byte, seed int64) rungInput {
	return rungInput{images: [][]byte{obj}, sizes: [][]int64{blcrStream(int64(len(obj)), seed)}}
}

func (l *daemonLoad) rungs() rungInput { return objectRungs(l.obj, l.seed) }
func (l *stripeLoad) rungs() rungInput { return objectRungs(l.obj, l.seed) }

func (in rungInput) bytes() (n int64) {
	for _, img := range in.images {
		n += int64(len(img))
	}
	return n
}

// writeStreams is the workload's checkpoint phase aimed at fsys.
func (in rungInput) writeStreams(fsys vfs.FS, run int) error {
	errs := make([]error, len(in.images))
	var wg sync.WaitGroup
	for rank := range in.images {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = writeImage(fsys, imageName(rank, run), in.images[rank], in.sizes[rank], nil)
		}(rank)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// rungMBps runs fn warm+runs times and returns nbytes over the median
// time of the last runs, in MiB/s. The untimed runs create every name of
// the rotation and then overwrite it, like the workload's own cycles: a
// rung's first overwrites land on memory the sandbox has not touched yet
// and ran several times slower when the workloads were sized.
func rungMBps(warm, runs int, nbytes int64, fn func(run int) error) (float64, error) {
	var times []float64
	for run := 0; run < warm+runs; run++ {
		t0 := time.Now()
		if err := fn(run); err != nil {
			return 0, err
		}
		if run >= warm {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	return float64(nbytes) / mib / median(times), nil
}

// ladder runs the workload's rungs and adds them, and the ratios between
// neighbouring rungs, to p.layer.
func ladder(l load, cfg config, p *pass) (err error) {
	dir := filepath.Join(cfg.dir, "rung")
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	warm, runs := rungWarm, rungRuns
	if cfg.cycles > 0 {
		warm, runs = rotation, 1
	}
	in := l.rungs()
	m := p.layer

	osDir := func(name string) (vfs.FS, error) {
		d := filepath.Join(dir, name)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		return osfs.New(d)
	}
	// coreOver mounts the workload's options over back and runs its
	// write streams through the mount.
	coreOver := func(back vfs.FS) (float64, error) {
		fs, err := crfs.Mount(back, mountOptions(in.codec))
		if err != nil {
			return 0, err
		}
		mbps, err := rungMBps(warm, runs, in.bytes(), func(run int) error { return in.writeStreams(fs, run) })
		return mbps, errors.Join(err, fs.Unmount())
	}

	back, err := osDir("direct")
	if err != nil {
		return err
	}
	direct, err := rungMBps(warm, runs, in.bytes(), func(run int) error { return in.writeStreams(back, run) })
	if err != nil {
		return fmt.Errorf("osfs.direct: %w", err)
	}
	m["osfs.direct_mbps"] = direct

	if m["core.discard_mbps"], err = coreOver(memfs.New(memfs.WithDiscard())); err != nil {
		return fmt.Errorf("core.discard: %w", err)
	}
	traced := p.ckptMBps()
	core := traced
	if _, ok := l.(*imageLoad); !ok {
		if back, err = osDir("core"); err != nil {
			return err
		}
		if core, err = coreOver(back); err != nil {
			return fmt.Errorf("core over osfs: %w", err)
		}
	}
	m["core.vs_direct"] = core / direct

	_, striped := l.(*stripeLoad)
	framed := in.codec != nil && in.codec.ID() != codec.RawID
	if framed {
		if err := codecRungs(in, runs, m); err != nil {
			return fmt.Errorf("codec: %w", err)
		}
	}
	if framed || striped { // frames and stripe chunks are both fingerprinted with it
		m["codec.checksum_mbps"] = checksumMBps(in.images[0], runs)
	}
	if _, ok := l.(*imageLoad); ok {
		return nil
	}

	// putAlone PUTs the object to one fresh daemon over back.
	obj := in.images[0]
	putAlone := func(back vfs.FS) (float64, error) {
		d, err := startDaemon(back, nil, nil)
		if err != nil {
			return 0, err
		}
		c, err := client.Dial(d.addr, client.Config{})
		if err != nil {
			return 0, errors.Join(err, d.stop())
		}
		mbps, err := rungMBps(warm, runs, int64(len(obj)), func(run int) error {
			return c.Put(objectName(run), bytes.NewReader(obj), int64(len(obj)))
		})
		return mbps, errors.Join(err, c.Close(), d.stop())
	}
	if m["server.discard_mbps"], err = putAlone(memfs.New(memfs.WithDiscard())); err != nil {
		return fmt.Errorf("server.discard: %w", err)
	}
	if back, err = osDir("daemon"); err != nil {
		return err
	}
	alone, err := putAlone(back)
	if err != nil {
		return fmt.Errorf("daemon over osfs: %w", err)
	}
	m["server.vs_core"] = alone / core
	if striped {
		m["stripe.vs_daemon"] = traced / alone
	}
	return nil
}

// checksumMBps runs codec.Checksum alone over img's chunks.
func checksumMBps(img []byte, runs int) float64 {
	t0 := time.Now()
	for i := 0; i < runs; i++ {
		for off := 0; off < len(img); off += chunkSize {
			sink += codec.Checksum(img[off:min(off+chunkSize, len(img))])
		}
	}
	return float64(runs*len(img)) / mib / time.Since(t0).Seconds()
}

var sink uint32 // keeps the checksum rung's result alive

// codecRungs runs encode and decode alone, one goroutine, over the first
// image's chunks, only through the verifying entry points. The first
// sweep warms the codec's buffers and is not timed.
func codecRungs(in rungInput, runs int, m map[string]float64) error {
	img := in.images[0]
	var enc, dec time.Duration
	var frame, out []byte
	for run := 0; run <= runs; run++ {
		for off := 0; off < len(img); off += chunkSize {
			chunk := img[off:min(off+chunkSize, len(img))]
			t0 := time.Now()
			var h codec.Header
			var err error
			if frame, h, err = codec.EncodeFrame(in.codec, uint64(off/chunkSize), int64(off), chunk, frame[:0]); err != nil {
				return err
			}
			t1 := time.Now()
			if out, err = codec.DecodeFrame(h, frame[len(frame)-int(h.EncLen):], out[:0]); err != nil {
				return err
			}
			t2 := time.Now()
			if !bytes.Equal(out, chunk) {
				return fmt.Errorf("chunk at %d does not round-trip", off)
			}
			if run > 0 {
				enc, dec = enc+t1.Sub(t0), dec+t2.Sub(t1)
			}
		}
	}
	mibs := float64(runs*len(img)) / mib
	m["codec.encode_mbps"], m["codec.decode_mbps"] = mibs/enc.Seconds(), mibs/dec.Seconds()
	return nil
}

// processMetrics are the proc.* metrics read from the process itself.
func processMetrics(m map[string]float64, goroutinesBefore int) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024
	}
	// Goroutines of closed connections and stopped servers take a moment
	// to exit; only ones still there after a grace period are leaks.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	m["proc.goroutines_leaked"] = float64(max(runtime.NumGoroutine()-goroutinesBefore, 0))
}
