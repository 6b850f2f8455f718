package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tiny shrinks the workloads to a few MiB and two measured cycles.
func tiny(dir string) config {
	return config{dir: dir, seed: 1, seconds: 1, shrink: 8, cycles: 2, warmup: 1}
}

// applies says which workloads must emit a per-layer metric.
func applies(metric, workload string) bool {
	image := strings.HasPrefix(workload, "ckpt-")
	layer, _, _ := strings.Cut(metric, ".")
	switch {
	case metric == "codec.encode_mbps" || metric == "codec.decode_mbps":
		return workload == "ckpt-blcr-deflate"
	case metric == "codec.checksum_mbps":
		return workload == "ckpt-blcr-deflate" || workload == "stripe-gen"
	case strings.HasPrefix(metric, "core.write_") || strings.HasPrefix(metric, "core.read_") || metric == "core.close_wait_s_per_gib":
		return image
	case layer == "client" || layer == "wire" || layer == "server":
		return !image
	case layer == "stripe":
		return workload == "stripe-gen"
	}
	return true
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, w := range workloads {
		cfg := tiny(dir)
		cfg.traceFile = filepath.Join(t.TempDir(), w.name+".trace.json")
		r, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || r.EndToEnd["fail_frac"].Value != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, r.Failed, r.Attempted)
		}
		for _, d := range endToEnd {
			v, ok := r.EndToEnd[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v, want unit %q", w.name, d.name, v, d.unit)
			}
			if d.name != "fail_frac" && !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, v.Value)
			}
		}
		for _, d := range perLayer {
			v, ok := r.PerLayer[d.name]
			if ok != applies(d.name, w.name) {
				t.Errorf("%s: per-layer %s emitted = %v, want %v", w.name, d.name, ok, !ok)
			}
			if ok && v.Unit != d.unit {
				t.Errorf("%s: per-layer %s has unit %q, want %q", w.name, d.name, v.Unit, d.unit)
			}
		}
		if len(r.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, catalogue has %d", w.name, len(r.EndToEnd), len(endToEnd))
		}
		if leaked := r.PerLayer["proc.goroutines_leaked"].Value; leaked != 0 {
			t.Errorf("%s: %v goroutines leaked", w.name, leaked)
		}
		if len(r.SelfTime) == 0 {
			t.Errorf("%s: no self times", w.name)
		}
		var events []map[string]any
		data, err := os.ReadFile(cfg.traceFile)
		if err == nil {
			err = json.Unmarshal(data, &events)
		}
		if err != nil || len(events) == 0 {
			t.Errorf("%s: chrome trace: %d events, %v", w.name, len(events), err)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("store not removed: %v", left)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before, %d after", goroutines, n)
	}
}

// The placement-dependent metrics must repeat exactly for a fixed seed:
// the node wrapper's stable IDs are what makes them.
func TestStripePlacementRepeats(t *testing.T) {
	w, _ := findWorkload("stripe-gen")
	var runs []map[string]metricValue
	for i := 0; i < 2; i++ {
		cfg := tiny(t.TempDir())
		cfg.shrink = 4 // 4 chunks, so placement has something to spread
		cfg.traceFile = filepath.Join(t.TempDir(), "trace.json")
		r, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.PerLayer["space_amp"] = r.EndToEnd["space_amp"]
		runs = append(runs, r.PerLayer)
	}
	for _, name := range []string{"space_amp", "stripe.node_skew", "stripe.node_put_bytes_per_user_byte", "osfs.write_bytes_per_user_byte", "proc.ops"} {
		if runs[0][name] != runs[1][name] || runs[0][name].Value == 0 {
			t.Errorf("%s: %v then %v", name, runs[0][name].Value, runs[1][name].Value)
		}
	}
}

// The checker is checked: one flipped byte, or the previous generation's
// bytes, in a restored buffer is a failed operation.
func TestWrongBytesAreCounted(t *testing.T) {
	l, err := newImageLoad(t.TempDir(), 1, nil, 2<<20, blcrStream, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	runCycle(l, nil, 0)
	if l.failed.Load() != 0 {
		t.Fatalf("clean cycle counted %d failures", l.failed.Load())
	}
	l.got[1][len(l.got[1])/2] ^= 1
	l.verify(0)
	if l.failed.Load() != 1 {
		t.Errorf("flipped byte: %d failures counted, want 1", l.failed.Load())
	}
	l.got[1][len(l.got[1])/2] ^= 1
	l.verify(1) // the buffers hold generation 0
	if l.failed.Load() != 1+loaders {
		t.Errorf("stale generation: %d failures counted, want %d", l.failed.Load(), 1+loaders)
	}
}

// BENCHMARK.json and the catalogue in metrics.go name the same metrics
// and workloads, and the driver's line carries exactly those metrics.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d, catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalogue %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd[:len(endToEnd)-1])
	same("per_layer", file.PerLayer, perLayer)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, want %s: %s", i, file.Workloads[i], w.name, w.why)
		}
	}

	for trace, want := range [][]metric{file.EndToEnd, file.PerLayer} {
		var out bytes.Buffer
		dir := t.TempDir()
		if err := benchMain(tiny(""), "ckpt-blcr-deflate", filepath.Join(dir, "out", "result.json"), dir, trace, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("-trace %d: last line: %v", trace, err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(want) {
			t.Errorf("-trace %d: %+v, want %d metrics", trace, line, len(want))
		}
		for _, m := range want {
			if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("-trace %d: metric %s = %+v, want unit %q", trace, m.Name, v, m.Unit)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{95, 96, 94}, true, "ok"},
		{"beyond bound", []float64{100, 101, 99}, []float64{80, 81, 79}, true, "worse"},
		{"lower is better", []float64{1.0, 1.01, 0.99}, []float64{1.3, 1.31, 1.29}, false, "worse"},
		{"noisy and overlapping", []float64{100, 130, 70}, []float64{90, 120, 60}, true, "unresolved"},
		{"noisy but every run better", []float64{100, 130, 70}, []float64{140, 170, 135}, true, "ok"},
		{"any failure", []float64{0}, []float64{0.01}, false, "worse"},
	} {
		bound := 0.1
		if c.name == "any failure" {
			bound = 0
		}
		if got, _, _ := judge(c.a, c.b, c.higher, bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// spread follows Python's statistics.quantiles(vs, n=4).
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got < 0.999 || got > 1.001 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
