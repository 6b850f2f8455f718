package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func sampleHistogram() PromHistogram {
	return PromHistogram{
		Name:   "crfs_write_latency_seconds",
		Help:   "WriteAt latency.",
		Bounds: []float64{0.001, 0.01, 0.1},
		Counts: []uint64{5, 3, 1, 2}, // per-bucket; last is +Inf
		Sum:    0.456,
		Count:  11,
	}
}

// TestExpositionGolden pins the exact text rendered for a mixed
// counter/gauge/histogram registry. The exposition is a wire format
// scraped by external tooling — any diff here is a compatibility
// decision, not a cosmetic one.
func TestExpositionGolden(t *testing.T) {
	ms := []PromMetric{
		Counter("crfs_writes_total", "Application writes.", 42),
		Gauge("crfs_ratio", "Aggregation ratio.", 2.5),
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, ms, []PromHistogram{sampleHistogram()}); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP crfs_ratio Aggregation ratio.`,
		`# TYPE crfs_ratio gauge`,
		`crfs_ratio 2.5`,
		`# HELP crfs_write_latency_seconds WriteAt latency.`,
		`# TYPE crfs_write_latency_seconds histogram`,
		`crfs_write_latency_seconds_bucket{le="0.001"} 5`,
		`crfs_write_latency_seconds_bucket{le="0.01"} 8`,
		`crfs_write_latency_seconds_bucket{le="0.1"} 9`,
		`crfs_write_latency_seconds_bucket{le="+Inf"} 11`,
		`crfs_write_latency_seconds_sum 0.456`,
		`crfs_write_latency_seconds_count 11`,
		`# HELP crfs_writes_total Application writes.`,
		`# TYPE crfs_writes_total counter`,
		`crfs_writes_total 42`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("golden exposition fails validation: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"sample without TYPE", "crfs_x 1\n"},
		{"bad value", "# TYPE crfs_x counter\ncrfs_x abc\n"},
		{"bad type", "# TYPE crfs_x widget\ncrfs_x 1\n"},
		{"duplicate TYPE", "# TYPE crfs_x counter\ncrfs_x 1\n# TYPE crfs_x counter\ncrfs_x 1\n"},
		{"type with no samples", "# TYPE crfs_x counter\n"},
		{"labels on counter", "# TYPE crfs_x counter\ncrfs_x{a=\"b\"} 1\n"},
		{"histogram without inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"histogram le not increasing", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"},
		{"histogram inf != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n"},
		{"histogram missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n"},
	}
	for _, c := range cases {
		if err := ValidateExposition([]byte(c.text)); err == nil {
			t.Errorf("%s: validator accepted:\n%s", c.name, c.text)
		}
	}
}

func TestStatLine(t *testing.T) {
	ms := []PromMetric{
		Counter("crfs_writes_total", "", 1024).WithStat("writes"),
		Counter("crfs_backend_writes_total", "", 2).WithStat("backend"),
		Gauge("crfs_aggregation_ratio", "", 512.5).WithStat("ratio"),
		Counter("crfs_hidden_total", "", 7), // no Stat key: omitted
	}
	got := StatLine(ms)
	want := "writes=1024 backend=2 ratio=512.50"
	if got != want {
		t.Errorf("StatLine = %q, want %q", got, want)
	}
}

func TestHistogramInfFromCount(t *testing.T) {
	// A torn snapshot (per-bucket counts lag the total) must still emit
	// a valid exposition: +Inf comes from Count.
	h := sampleHistogram()
	h.Counts = []uint64{1, 0, 0, 0}
	h.Count = 9
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil, []PromHistogram{h}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("torn snapshot exposition invalid: %v\n%s", err, buf.String())
	}
}
