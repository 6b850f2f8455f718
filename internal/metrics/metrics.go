// Package metrics collects and summarizes per-write measurements from
// simulated checkpoint runs: the write-size/time histogram of Table I, the
// per-process cumulative write-time curves of Figs. 3 and 11, and basic
// summary statistics used throughout the evaluation. It also holds the
// Prometheus text exposition writer behind crfsd's STAT line and /metrics.
package metrics

import (
	"math"
	"sort"

	"crfs/internal/des"
)

// WriteRec is one recorded write call.
type WriteRec struct {
	Size int64
	Dur  des.Duration
}

// ProcLog is the write log of one process during one checkpoint.
type ProcLog struct {
	Node   int
	Rank   int
	Writes []WriteRec
	Start  des.Time
	End    des.Time // write+close completion
}

// Duration returns the process's write+close time.
func (p *ProcLog) Duration() des.Duration { return p.End - p.Start }

// TotalBytes returns the bytes written by the process.
func (p *ProcLog) TotalBytes() int64 {
	var n int64
	for _, w := range p.Writes {
		n += w.Size
	}
	return n
}

// Buckets are the paper's Table I write-size bucket upper bounds.
var Buckets = []int64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, math.MaxInt64}

// BucketLabels name the Table I buckets.
var BucketLabels = []string{"0-64", "64-256", "256-1K", "1K-4K", "4K-16K", "16K-64K", "64K-256K", "256K-512K", "512K-1M", ">1M"}

// BucketIndex returns the Table I bucket for a write of n bytes.
func BucketIndex(n int64) int {
	for i, ub := range Buckets {
		if n <= ub {
			return i
		}
	}
	return len(Buckets) - 1
}

// HistRow is one row of the Table I reproduction.
type HistRow struct {
	Label    string
	PctWrite float64 // % of write calls
	PctData  float64 // % of bytes
	PctTime  float64 // % of cumulative write time
}

// Histogram builds the Table I profile from a set of process logs.
func Histogram(logs []*ProcLog) []HistRow {
	var nWrites, nBytes int64
	var nTime des.Duration
	counts := make([]int64, len(Buckets))
	bytes := make([]int64, len(Buckets))
	times := make([]des.Duration, len(Buckets))
	for _, pl := range logs {
		for _, w := range pl.Writes {
			b := BucketIndex(w.Size)
			counts[b]++
			bytes[b] += w.Size
			times[b] += w.Dur
			nWrites++
			nBytes += w.Size
			nTime += w.Dur
		}
	}
	rows := make([]HistRow, len(Buckets))
	for i := range Buckets {
		rows[i] = HistRow{
			Label:    BucketLabels[i],
			PctWrite: pct(float64(counts[i]), float64(nWrites)),
			PctData:  pct(float64(bytes[i]), float64(nBytes)),
			PctTime:  pct(float64(times[i]), float64(nTime)),
		}
	}
	return rows
}

func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// CumulativePoint is one point of a Fig. 3/11 curve: total write time
// accumulated over all writes of size <= Size.
type CumulativePoint struct {
	Size    int64
	CumTime float64 // seconds
}

// CumulativeCurve builds a process's cumulative write-time curve with
// respect to write size, as in Figs. 3 and 11.
func CumulativeCurve(pl *ProcLog) []CumulativePoint {
	ws := make([]WriteRec, len(pl.Writes))
	copy(ws, pl.Writes)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Size < ws[j].Size })
	out := make([]CumulativePoint, 0, len(ws))
	var cum des.Duration
	for i, w := range ws {
		cum += w.Dur
		if i+1 < len(ws) && ws[i+1].Size == w.Size {
			continue // emit one point per distinct size
		}
		out = append(out, CumulativePoint{Size: w.Size, CumTime: des.Seconds(cum)})
	}
	return out
}

// Summary holds distribution statistics of per-process values.
type Summary struct {
	N                   int
	Mean, Min, Max, Std float64
}

// Spread returns Max - Min, the completion-time variation the paper
// highlights in Figs. 3 and 11.
func (s Summary) Spread() float64 { return s.Max - s.Min }

// Summarize computes summary statistics of a slice of float values.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := Summary{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(vals)))
	return s
}

// WriteTimes extracts per-process write+close durations in seconds.
func WriteTimes(logs []*ProcLog) []float64 {
	out := make([]float64, len(logs))
	for i, pl := range logs {
		out[i] = des.Seconds(pl.Duration())
	}
	return out
}
