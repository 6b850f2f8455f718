package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"crfs/internal/obs"
)

// PromHistogram is one histogram family of the Prometheus text
// exposition format: per-bucket counts over ascending upper bounds
// (Counts[i] ≤ Bounds[i]; one extra trailing count for +Inf), plus the
// running sum and total count. Counts are per-bucket — the writer
// accumulates them into the format's cumulative le-series.
type PromHistogram struct {
	Name   string
	Help   string
	Bounds []float64 // ascending finite upper bounds
	Counts []uint64  // len(Bounds)+1; last entry is the +Inf bucket
	Sum    float64
	Count  uint64
}

// PromHistogramOf converts one lock-free latency/size histogram to its
// exposition form. scale divides raw observed values into the exported
// unit (1e9 for ns→seconds, 1 for bytes).
func PromHistogramOf(name, help string, h *obs.Histogram, scale float64) PromHistogram {
	s := h.Snapshot()
	out := PromHistogram{
		Name:   name,
		Help:   help,
		Bounds: make([]float64, len(s.Bounds)),
		Counts: make([]uint64, len(s.Counts)),
		Sum:    float64(s.Sum) / scale,
		Count:  uint64(s.Count),
	}
	for i, b := range s.Bounds {
		out.Bounds[i] = float64(b) / scale
	}
	for i, c := range s.Counts {
		out.Counts[i] = uint64(c)
	}
	return out
}

// WritePrometheus renders counters/gauges and histogram families in the
// Prometheus text exposition format (version 0.0.4): a # HELP and
// # TYPE line per family followed by its samples, HELP text escaped per
// the format rules. Families are interleaved in one name-sorted
// exposition, so scrape output stays deterministic and diffable as
// families are added.
func WritePrometheus(w io.Writer, ms []PromMetric, hs []PromHistogram) error {
	sortedM := make([]PromMetric, len(ms))
	copy(sortedM, ms)
	sort.Slice(sortedM, func(i, j int) bool { return sortedM[i].Name < sortedM[j].Name })
	sortedH := make([]PromHistogram, len(hs))
	copy(sortedH, hs)
	sort.Slice(sortedH, func(i, j int) bool { return sortedH[i].Name < sortedH[j].Name })

	mi, hi := 0, 0
	for mi < len(sortedM) || hi < len(sortedH) {
		if hi >= len(sortedH) || (mi < len(sortedM) && sortedM[mi].Name < sortedH[hi].Name) {
			if err := writeOne(w, sortedM[mi]); err != nil {
				return err
			}
			mi++
			continue
		}
		if err := writeHistogram(w, sortedH[hi]); err != nil {
			return err
		}
		hi++
	}
	return nil
}

func writeOne(w io.Writer, m PromMetric) error {
	typ := m.Type
	if typ == "" {
		typ = "gauge"
	}
	if m.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, escapeHelp(m.Help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", m.Name, typ, m.Name, m.Value)
	return err
}

func writeHistogram(w io.Writer, h PromHistogram) error {
	if h.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", h.Name, escapeHelp(h.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.Name); err != nil {
		return err
	}
	var cum uint64
	for i, ub := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, formatBound(ub), cum); err != nil {
			return err
		}
	}
	// +Inf bucket must equal the total count by format rule; render it
	// from Count so a torn snapshot (counts vs count) cannot produce an
	// inconsistent exposition.
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %v\n%s_count %d\n", h.Name, h.Sum, h.Name, h.Count)
	return err
}

// formatBound renders a bucket upper bound the way Prometheus
// canonically does: shortest float representation.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	bucketRe     = regexp.MustCompile(`^\{le="([^"]+)"\}$`)
)

// ValidateExposition is a strict checker of the subset of the
// Prometheus text format (0.0.4) this package emits: every sample must
// be preceded by a TYPE line for its family; histogram families must
// carry le-labelled cumulative buckets ending in +Inf, with
// le="+Inf" == _count; values must parse as floats. It exists so the
// golden exposition test (and CI's smoke grep) check structure, not
// just substrings.
func ValidateExposition(data []byte) error {
	type family struct {
		typ       string
		lastLe    float64
		lastCum   uint64
		buckets   int
		infCount  uint64
		sawInf    bool
		count     uint64
		sawCount  bool
		sawSum    bool
		sawSample bool
	}
	fams := make(map[string]*family)
	order := []string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("line %d: malformed TYPE line %q", ln, line)
			}
			name, typ := fields[2], fields[3]
			if !metricNameRe.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q", ln, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", ln, typ)
			}
			if _, dup := fams[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %q", ln, name)
			}
			fams[name] = &family{typ: typ, lastLe: math.Inf(-1)}
			order = append(order, name)
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: unknown comment line %q", ln, line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", ln, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: unparsable value %q: %v", ln, valStr, err)
		}
		base := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, s); ok {
				if f, isHist := fams[b]; isHist && f.typ == "histogram" {
					base, suffix = b, s
					break
				}
			}
		}
		f := fams[base]
		if f == nil {
			return fmt.Errorf("line %d: sample %q has no TYPE line", ln, name)
		}
		f.sawSample = true
		if f.typ != "histogram" {
			if labels != "" {
				return fmt.Errorf("line %d: unexpected labels on %q", ln, name)
			}
			continue
		}
		switch suffix {
		case "_bucket":
			bm := bucketRe.FindStringSubmatch(labels)
			if bm == nil {
				return fmt.Errorf("line %d: histogram bucket %q lacks a single le label", ln, line)
			}
			var le float64
			if bm[1] == "+Inf" {
				le = math.Inf(1)
			} else if le, err = strconv.ParseFloat(bm[1], 64); err != nil {
				return fmt.Errorf("line %d: unparsable le %q", ln, bm[1])
			}
			if le <= f.lastLe {
				return fmt.Errorf("line %d: le %q not increasing for %q", ln, bm[1], base)
			}
			cum := uint64(val)
			if f.buckets > 0 && cum < f.lastCum {
				return fmt.Errorf("line %d: bucket counts not cumulative for %q (%d after %d)", ln, base, cum, f.lastCum)
			}
			f.lastLe, f.lastCum = le, cum
			f.buckets++
			if math.IsInf(le, 1) {
				f.sawInf, f.infCount = true, cum
			}
		case "_sum":
			f.sawSum = true
		case "_count":
			f.sawCount, f.count = true, uint64(val)
		default:
			return fmt.Errorf("line %d: unexpected histogram sample %q", ln, name)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, name := range order {
		f := fams[name]
		if !f.sawSample {
			return fmt.Errorf("family %q: TYPE line with no samples", name)
		}
		if f.typ != "histogram" {
			continue
		}
		if !f.sawInf {
			return fmt.Errorf("histogram %q: no le=\"+Inf\" bucket", name)
		}
		if !f.sawSum || !f.sawCount {
			return fmt.Errorf("histogram %q: missing _sum or _count", name)
		}
		if f.infCount != f.count {
			return fmt.Errorf("histogram %q: le=\"+Inf\" %d != _count %d", name, f.infCount, f.count)
		}
	}
	return nil
}
