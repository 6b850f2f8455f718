package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef is one row of the catalogue (bench/README.md describes each).
type metricDef struct {
	name, unit string
	better     string // "higher" or "lower"
	exact      bool   // a count that must repeat for a fixed seed
}

// endToEnd lists the end-to-end metrics, measured by the untraced pass.
// BENCHMARK.json holds their bounds and carries all but fail_frac, which
// is 0 on every accepted run and is reported to the driver as
// failed/attempted; its bound is absolute.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ckpt_mbps", unit: "MiB/s", better: "higher"},
	{name: "restore_mbps", unit: "MiB/s", better: "higher"},
	{name: "cpu_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "alloc_kib_per_mib", unit: "KiB/MiB", better: "lower"},
	{name: "space_amp", unit: "ratio", better: "lower", exact: true},
	{name: "fail_frac", unit: "ratio", better: "lower"},
}

// perLayer lists the per-layer metrics, measured by the traced pass, in
// ladder order: outermost dependency first. A workload emits only the
// layers it exercises.
var perLayer = []metricDef{
	{name: "osfs.direct_mbps", unit: "MiB/s", better: "higher"},
	{name: "osfs.write_calls_per_gib", unit: "1/GiB", better: "lower"},
	{name: "osfs.write_mean_kib", unit: "KiB", better: "higher"},
	{name: "osfs.write_busy_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "osfs.write_bytes_per_user_byte", unit: "ratio", better: "lower", exact: true},
	{name: "osfs.read_calls_per_gib", unit: "1/GiB", better: "lower"},
	{name: "osfs.read_busy_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "osfs.read_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "osfs.meta_calls_per_op", unit: "1/op", better: "lower"},

	{name: "codec.encode_mbps", unit: "MiB/s", better: "higher"},
	{name: "codec.decode_mbps", unit: "MiB/s", better: "higher"},
	{name: "codec.checksum_mbps", unit: "MiB/s", better: "higher"},
	{name: "codec.ratio", unit: "ratio", better: "higher", exact: true},
	{name: "codec.raw_bailout_frac", unit: "ratio", better: "lower", exact: true},

	{name: "core.write_call_p50_us", unit: "us/call", better: "lower"},
	{name: "core.write_call_p99_us", unit: "us/call", better: "lower"},
	{name: "core.write_busy_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "core.close_wait_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "core.read_call_p50_us", unit: "us/call", better: "lower"},
	{name: "core.read_call_p99_us", unit: "us/call", better: "lower"},
	{name: "core.discard_mbps", unit: "MiB/s", better: "higher"},
	{name: "core.vs_direct", unit: "ratio", better: "higher"},
	{name: "core.aggregation_ratio", unit: "ratio", better: "higher"},
	{name: "core.pool_waits_per_gib", unit: "1/GiB", better: "lower"},
	{name: "core.prefetch_hit_frac", unit: "ratio", better: "higher"},
	{name: "core.prefetch_wasted_per_gib", unit: "1/GiB", better: "lower"},

	{name: "client.put_call_p50_ms", unit: "ms/call", better: "lower"},
	{name: "client.put_call_p75_ms", unit: "ms/call", better: "lower"},
	{name: "client.get_call_p50_ms", unit: "ms/call", better: "lower"},
	{name: "client.get_call_p75_ms", unit: "ms/call", better: "lower"},
	{name: "wire.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wire.conn_writes_per_mib", unit: "1/MiB", better: "lower"},
	{name: "wire.conn_reads_per_mib", unit: "1/MiB", better: "lower"},
	{name: "server.discard_mbps", unit: "MiB/s", better: "higher"},
	{name: "server.vs_core", unit: "ratio", better: "higher"},
	{name: "server.request_errors", unit: "count", better: "lower", exact: true},
	{name: "server.puts_aborted", unit: "count", better: "lower", exact: true},

	{name: "stripe.node_put_busy_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "stripe.node_get_busy_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "stripe.put_mean_inflight", unit: "ratio", better: "higher"},
	{name: "stripe.get_mean_inflight", unit: "ratio", better: "higher"},
	{name: "stripe.node_put_bytes_per_user_byte", unit: "ratio", better: "lower", exact: true},
	{name: "stripe.node_calls_per_put", unit: "1/put", better: "lower", exact: true},
	{name: "stripe.manifest_s_per_put", unit: "s/put", better: "lower"},
	{name: "stripe.node_skew", unit: "ratio", better: "lower", exact: true},
	{name: "stripe.vs_daemon", unit: "ratio", better: "higher"},
	{name: "stripe.replica_fallbacks", unit: "count", better: "lower", exact: true},
	{name: "stripe.checksum_failed", unit: "count", better: "lower", exact: true},

	{name: "proc.ops", unit: "count", better: "higher", exact: true},
	{name: "proc.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.goroutines_leaked", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "tail.ckpt_p75_s", unit: "s", better: "lower"},
	{name: "tail.restore_p75_s", unit: "s", better: "lower"},
}

// metricValue is a measured value as the result files carry it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's row of a result file.
type workloadResult struct {
	Cycles    int                    `json:"cycles"` // samples behind every median and p75
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	SelfTime  map[string]float64     `json:"self_time_s,omitempty"`
}

// result is the file -out writes and -compare reads.
type result struct {
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Cores      int                        `json:"cores"`
	Dir        string                     `json:"dir"`
	Filesystem string                     `json:"filesystem"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// values keeps the defs that vs has, with their units.
func values(defs []metricDef, vs map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(vs))
	for _, d := range defs {
		if v, ok := vs[d.name]; ok {
			out[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return out
}

// print writes the workload's metrics by name, with unit and sample count.
func (r *workloadResult) print(w io.Writer, name string) {
	fmt.Fprintf(w, "\n== %s: %d measured cycles, %d operations, %d failed\n", name, r.Cycles, r.Attempted, r.Failed)
	table := func(title string, defs []metricDef, vs map[string]metricValue) {
		if len(vs) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		for _, d := range defs {
			if v, ok := vs[d.name]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %-8s n=%d\n", d.name, v.Value, v.Unit, r.Cycles)
			}
		}
	}
	table("end-to-end (untraced pass)", endToEnd, r.EndToEnd)
	table("per-layer (traced pass)", perLayer, r.PerLayer)
	if len(r.SelfTime) > 0 {
		names := make([]string, 0, len(r.SelfTime))
		for n := range r.SelfTime {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%.3f", n, r.SelfTime[n])
		}
		fmt.Fprintf(w, "self time by span, s (span minus what its children cover):%s\n", b.String())
	}
}
