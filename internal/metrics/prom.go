package metrics

import (
	"fmt"
	"math"
	"strings"
)

// PromMetric is one sample of the Prometheus text exposition format: a
// metric name, its HELP line, its TYPE (counter or gauge), and the
// current value. crfsd's /metrics endpoint renders the full Stats tree
// of a mount — recovery, compaction, scrub, integrity, and the server's
// own connection counters — as a flat list of these.
type PromMetric struct {
	Name  string
	Help  string
	Type  string // "counter" or "gauge"
	Value float64

	// Stat, when non-empty, is the metric's short key on crfsd's one-line
	// STAT summary. STAT and /metrics render from the same registry (the
	// server's Metrics() list), so the two cannot drift; metrics without
	// a Stat key appear only in the Prometheus exposition.
	Stat string
}

// Counter builds a counter-typed PromMetric from an integer total.
func Counter(name, help string, v int64) PromMetric {
	return PromMetric{Name: name, Help: help, Type: "counter", Value: float64(v)}
}

// Gauge builds a gauge-typed PromMetric.
func Gauge(name, help string, v float64) PromMetric {
	return PromMetric{Name: name, Help: help, Type: "gauge", Value: v}
}

// WithStat returns the metric with its STAT-line key set.
func (m PromMetric) WithStat(key string) PromMetric {
	m.Stat = key
	return m
}

// StatLine renders the metrics that carry a Stat key as a one-line
// "k=v k=v ..." summary, in the order given (STAT consumers scan for
// known keys, so order is presentation only). Integral values render
// without a decimal point; others keep the precision hinted by the
// key's formatting convention (ratios print with two decimals).
func StatLine(ms []PromMetric) string {
	var b strings.Builder
	for _, m := range ms {
		if m.Stat == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(m.Stat)
		b.WriteByte('=')
		if m.Value == math.Trunc(m.Value) && math.Abs(m.Value) < 1e15 {
			fmt.Fprintf(&b, "%d", int64(m.Value))
		} else {
			fmt.Fprintf(&b, "%.2f", m.Value)
		}
	}
	return b.String()
}

// escapeHelp escapes backslashes and newlines, the two characters the
// exposition format requires escaping in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
