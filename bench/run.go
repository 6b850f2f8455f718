package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	crfs "crfs"
	"crfs/internal/blcr"
)

const (
	warmupCycles = 4
	minCycles    = 40 // p75 then has ten samples beyond it
	rounds       = 3
)

// workload is one named load shape. The work of a run is fixed, not its
// duration, so counts repeat: cyclesPerSecond × -seconds measured cycles
// (never fewer than minCycles), sized on the 2-core reference box so a
// run measures for about -seconds.
type workload struct {
	name, why       string
	cyclesPerSecond float64
	build           func(dir string, seed int64, tr *tracer, shrink int64) (load, error)
}

var workloads = []workload{
	{
		name: "ckpt-small-raw",
		why:  "2 writers, 64 MiB each in 512 B WriteAt calls, raw codec: core's per-call path does the work; codec, server and stripe do none",
		// ≈0.24 s per cycle
		cyclesPerSecond: 4,
		build: func(dir string, seed int64, tr *tracer, shrink int64) (load, error) {
			return newImageLoad(dir, seed, tr, (64<<20)/shrink, smallStream, nil)
		},
	},
	{
		name: "ckpt-blcr-raw",
		why:  "same images in BLCR's write sizes (Table I): chunk copy, pool back-pressure, Close drain and osfs dominate, per-call cost vanishes",
		// ≈0.1 s per cycle
		cyclesPerSecond: 10,
		build: func(dir string, seed int64, tr *tracer, shrink int64) (load, error) {
			return newImageLoad(dir, seed, tr, (64<<20)/shrink, blcrStream, nil)
		},
	},
	{
		name: "ckpt-blcr-deflate",
		why:  "BLCR stream, 16 MiB images, deflate codec: encode and decode do over 90 % of the work; core and osfs do little",
		// ≈0.27 s per cycle
		cyclesPerSecond: 4,
		build: func(dir string, seed int64, tr *tracer, shrink int64) (load, error) {
			return newImageLoad(dir, seed, tr, (16<<20)/shrink, blcrStream, crfs.DeflateCodec())
		},
	},
	{
		name: "daemon-mixed",
		why:  "one daemon on loopback: a 32 MiB PUT stream beside a GET stream; core and osfs as in ckpt-blcr-raw, so the gap to it is server+client",
		// ≈0.06 s per cycle
		cyclesPerSecond: 16,
		build: func(dir string, seed int64, tr *tracer, shrink int64) (load, error) {
			return newDaemonLoad(dir, seed, tr, (32<<20)/shrink)
		},
	},
	{
		name: "stripe-gen",
		why:  "3 daemons, k=2: a checkpoint series rewriting 25 % of a 64 MiB object's chunks per generation; coordinator and replication do the work",
		// ≈0.2 s per cycle
		cyclesPerSecond: 5,
		build: func(dir string, seed int64, tr *tracer, shrink int64) (load, error) {
			return newStripeLoad(dir, seed, tr, (64<<20)/shrink)
		},
	},
}

func smallStream(image, _ int64) []int64 { return fixedStream(image, 512) }

// blcrStream is blcr.Stream cut or padded to exactly image bytes.
func blcrStream(image, seed int64) []int64 {
	sizes := blcr.Stream(image, seed)
	sum := blcr.StreamBytes(sizes)
	for sum > image {
		last := &sizes[len(sizes)-1]
		cut := min(*last, sum-image)
		*last -= cut
		sum -= cut
		if *last == 0 {
			sizes = sizes[:len(sizes)-1]
		}
	}
	if sum < image {
		sizes = append(sizes, image-sum)
	}
	return sizes
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's parameters.
type config struct {
	dir     string  // scratch directory on the chosen filesystem
	seed    int64   // payload and stream seed
	seconds float64 // sizes the measured work
	// traceFile, when set, asks for the traced pass too and names the
	// chrome trace it writes.
	traceFile string
	// shrink divides image sizes, cycles and warmup override the cycle
	// counts; zero outside tests.
	shrink         int64
	cycles, warmup int
}

func (c config) counts(w workload) (warmup, cycles int) {
	if c.cycles > 0 {
		return c.warmup, c.cycles
	}
	return warmupCycles, max(minCycles, int(math.Round(w.cyclesPerSecond*c.seconds)))
}

// pass is what one pass over a workload measured.
type pass struct {
	cycles            int
	setup             float64       // seconds
	ckpt, restore     []float64     // seconds, per measured cycle
	alloc             []float64     // bytes allocated inside cycle(), per measured cycle
	cpu               time.Duration // process user+sys inside cycle(), all measured cycles
	gcCycles          uint32
	stored            int64              // bytes in the backend directories at the end
	attempted, failed int64              // operations over the whole pass, warm-up included
	ops               int64              // operations in the measured cycles
	userBytes         int64              // checkpointed, and restored, per cycle
	layer             map[string]float64 // traced pass only
	selfTime          map[string]float64
}

// runPass measures the workload under cfg.dir. The untraced pass is
// rounds of set-up, warm-up and a share of the measured cycles, each on a
// fresh store, daemons and connections: whatever a process settles into
// for a whole round (which core serves a socket, how its memory lies)
// then differs between the rounds of one run rather than between runs,
// and setup_s is a median. With a tracer it is the traced pass: one
// round, which also fills pass.layer.
func runPass(w workload, cfg config, tr *tracer) (*pass, error) {
	_, cycles := cfg.counts(w)
	n := rounds
	if tr != nil || cfg.cycles > 0 {
		n = 1
	}
	p := &pass{cycles: cycles}
	var setups []float64
	for round := 0; round < n; round++ {
		share := cycles / n
		if round < cycles%n {
			share++
		}
		took, err := runRound(w, cfg, tr, share, p)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	p.setup = median(setups)
	return p, nil
}

// runRound sets the workload up, warms it up, adds n measured cycles to
// p and tears everything down. It returns the seconds set-up and warm-up
// took. In the traced pass the ladder's rungs run before tear-down,
// while the payload still exists.
func runRound(w workload, cfg config, tr *tracer, n int, p *pass) (setup float64, err error) {
	dir := filepath.Join(cfg.dir, "data")
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	warmup, _ := cfg.counts(w)

	t0 := time.Now()
	l, err := w.build(dir, cfg.seed, tr, max(cfg.shrink, 1))
	if err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		if cerr := l.close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("%s: tear-down: %w", w.name, cerr))
		}
	}()
	for gen := 0; gen < warmup; gen++ {
		runCycle(l, tr, gen)
	}
	setup = time.Since(t0).Seconds()

	b := l.base()
	p.userBytes = b.userBytes
	before, opsBefore := readCore(b.mounts), b.attempted.Load()
	if tr != nil {
		tr.on.Store(true)
	}
	for gen := warmup; gen < warmup+n; gen++ {
		c := runCycle(l, tr, gen)
		p.ckpt, p.restore = append(p.ckpt, c.ckpt.Seconds()), append(p.restore, c.restore.Seconds())
		p.alloc, p.cpu, p.gcCycles = append(p.alloc, float64(c.alloc)), p.cpu+c.cpu, p.gcCycles+c.gcCycles
	}
	if tr != nil {
		tr.on.Store(false)
	}
	p.attempted, p.failed = p.attempted+b.attempted.Load(), p.failed+b.failed.Load()
	p.ops += b.attempted.Load() - opsBefore
	if e := b.firstErr.Load(); e != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed operation: %v\n", w.name, *e)
	}
	if p.stored, err = dirBytes(dir); err != nil {
		return 0, err
	}
	if tr != nil {
		p.layer = layerMetrics(l, p, before)
		p.selfTime = tr.selfTimes()
		if err := ladder(l, cfg, p); err != nil {
			return 0, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
	}
	return setup, nil
}

// cycleSample is what one generation cost.
type cycleSample struct {
	ckpt, restore, cpu time.Duration
	alloc              uint64 // bytes allocated
	gcCycles           uint32
}

// runCycle runs one generation. Only cycle() is inside the CPU and
// allocation windows: making the generation and checking the restored
// bytes are the harness's work, not the library's.
func runCycle(l load, tr *tracer, gen int) (c cycleSample) {
	l.prepare(gen)
	var id int32
	if tr != nil {
		tr.cycle.Store(int32(gen))
		id = tr.begin("cycle", 0)
		tr.scope.Store(id)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	c.ckpt, c.restore = l.cycle(gen)
	c.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	c.alloc, c.gcCycles = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	if tr != nil {
		tr.end(id)
	}
	l.verify(gen)
	return c
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// quantile is the q-quantile of vs by linear interpolation.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func sum(vs []float64) (t float64) {
	for _, v := range vs {
		t += v
	}
	return t
}

const (
	mib = 1 << 20
	gib = 1 << 30
)

// endToEndValues computes the end-to-end metrics of an untraced pass.
func (p *pass) endToEndValues() map[string]float64 {
	moved := 2 * float64(p.userBytes) // per cycle: checkpointed + restored
	return map[string]float64{
		"setup_s":           p.setup,
		"ckpt_mbps":         p.ckptMBps(),
		"restore_mbps":      float64(p.userBytes) / mib / median(p.restore),
		"cpu_s_per_gib":     p.cpu.Seconds() / (moved * float64(p.cycles) / gib),
		"alloc_kib_per_mib": quantile(p.alloc, 0.25) / 1024 / (moved / mib),
		"space_amp":         float64(p.stored) / float64(rotation*p.userBytes),
		"fail_frac":         float64(p.failed) / float64(p.attempted),
	}
}

func (p *pass) ckptMBps() float64 { return float64(p.userBytes) / mib / median(p.ckpt) }
