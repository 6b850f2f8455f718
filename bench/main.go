// Command bench is the repository's benchmark: five checkpoint/restore
// workloads driven through the real library over internal/osfs, seven
// end-to-end metrics from an untraced pass, and a per-layer ladder from a
// traced pass. bench/README.md is the catalogue.
//
//	go run ./bench                          every workload, both passes, full report
//	go run ./bench -workload stripe-gen     one workload
//	go run ./bench -compare A.json B.json   regression check between result files
//
// The benchmark contract's driver runs one workload and one pass at a
// time: -workload W -seed N -seconds S -trace 0|1, and reads the JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	seed := flag.Int64("seed", 1, "payload and write-stream seed")
	only := flag.String("workload", "", "run one workload (default: all five)")
	out := flag.String("out", "bench/out/result.json", "result file; chrome traces are written beside it")
	dir := flag.String("dir", "", "directory for the backing store (default: /dev/shm if it is a tmpfs with 2 GiB free, else the system temp dir)")
	compare := flag.Bool("compare", false, "compare two result files (or comma-separated sets): -compare A.json B.json")
	secs := flag.Float64("seconds", 10, "size each pass's measured work to about this long on the reference box")
	trace := flag.Int("trace", -1, "driver mode: 0 = untraced pass, end-to-end metrics on the last line; 1 = both passes, per-layer metrics on the last line")
	flag.Parse()

	var err error
	if *compare {
		err = compareMain(flag.Args(), os.Stdout)
	} else {
		err = benchMain(config{seed: *seed, seconds: *secs}, *only, *out, *dir, *trace, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchMain runs the selected workloads with their store under base and
// reports to stdout and the result file out. trace < 0 is the full
// report; 0 and 1 are the driver's modes.
func benchMain(cfg config, only, out, base string, trace int, stdout io.Writer) error {
	if runtime.NumCPU() < loaders {
		return fmt.Errorf("needs %d cores for its %d load goroutines, have %d", loaders, loaders, runtime.NumCPU())
	}
	run := workloads
	if only != "" {
		w, ok := findWorkload(only)
		if !ok {
			return fmt.Errorf("no workload %q", only)
		}
		run = []workload{w}
	}
	dir, err := makeStore(base)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// An interrupted run must not leave the store behind either.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case <-sig:
			os.RemoveAll(dir)
			os.Exit(1)
		case <-done:
		}
	}()

	cfg.dir = dir
	res := &result{Seed: cfg.seed, Seconds: cfg.seconds, Cores: runtime.NumCPU(), Dir: dir, Filesystem: fsName(dir),
		Workloads: make(map[string]*workloadResult)}
	fmt.Fprintf(stdout, "crfs bench: seed %d, %d cores, store %s (%s)\n", cfg.seed, res.Cores, dir, res.Filesystem)
	traceDir := filepath.Dir(out)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	var failed int64
	for _, w := range run {
		if trace != 0 {
			cfg.traceFile = filepath.Join(traceDir, w.name+".trace.json")
		}
		r, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		r.print(stdout, w.name)
		res.Workloads[w.name] = r
		failed += r.Failed
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if trace >= 0 {
		// The driver's line: every metric BENCHMARK.json lists for this
		// pass, 0 where the workload does not exercise the layer.
		r := res.Workloads[run[0].name]
		defs, vs := endToEnd[:len(endToEnd)-1], r.EndToEnd
		if trace == 1 {
			defs, vs = perLayer, r.PerLayer
		}
		line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
		for _, d := range defs {
			line.Metrics[d.name] = metricValue{Value: vs[d.name].Value, Unit: d.unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// driverLine is the last line of standard output in driver mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs the untraced pass and, when cfg.traceFile is set, the
// traced pass, and assembles the workload's result.
func runWorkload(w workload, cfg config) (*workloadResult, error) {
	goroutines := runtime.NumGoroutine()
	plain, err := runPass(w, cfg, nil)
	if err != nil {
		return nil, err
	}
	r := &workloadResult{Cycles: plain.cycles, Attempted: plain.attempted, Failed: plain.failed,
		EndToEnd: values(endToEnd, plain.endToEndValues())}
	if cfg.traceFile == "" {
		return r, nil
	}
	tr := newTracer()
	traced, err := runPass(w, cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.writeChrome(cfg.traceFile); err != nil {
		return nil, err
	}
	m := traced.layer
	m["proc.ops"] = float64(plain.ops)
	m["proc.gc_cycles"] = float64(plain.gcCycles)
	m["trace.overhead_pct"] = 100 * (plain.ckptMBps()/traced.ckptMBps() - 1)
	m["tail.ckpt_p75_s"] = quantile(plain.ckpt, 0.75)
	m["tail.restore_p75_s"] = quantile(plain.restore, 0.75)
	processMetrics(m, goroutines)
	r.Attempted, r.Failed = r.Attempted+traced.attempted, r.Failed+traced.failed
	r.PerLayer, r.SelfTime = values(perLayer, m), traced.selfTime
	return r, nil
}

const tmpfsMagic = 0x01021994 // statfs f_type

// makeStore creates the run's scratch directory under base, or, with no
// base given, in the first place that takes it: /dev/shm when it is a
// tmpfs with 2 GiB free (medians over a disk-backed directory did not
// repeat when the workloads were sized), the system temp dir, and last
// the benchmark's own output directory.
func makeStore(base string) (string, error) {
	bases := []string{base}
	if base == "" {
		const shm = "/dev/shm"
		bases = []string{os.TempDir(), filepath.Join("bench", "out")}
		var st syscall.Statfs_t
		if err := syscall.Statfs(shm, &st); err == nil && st.Type == tmpfsMagic && st.Bavail*uint64(st.Bsize) >= 2<<30 {
			bases = append([]string{shm}, bases...)
		}
	}
	var errs error
	for _, b := range bases {
		err := os.MkdirAll(b, 0o755)
		if err == nil {
			var dir string
			if dir, err = os.MkdirTemp(b, "crfs-bench-"); err == nil {
				return dir, nil
			}
		}
		errs = errors.Join(errs, err)
	}
	return "", errs
}

// fsName names the filesystem dir is on, for the record.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case tmpfsMagic:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	}
	return fmt.Sprintf("fs-%#x", st.Type)
}
