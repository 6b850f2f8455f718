package obs

import (
	"slices"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe
// with no locking and no allocation: a binary search over the
// immutable bounds plus three atomic adds. Bounds are upper edges
// (inclusive, Prometheus "le" semantics); values above the last bound
// land in an implicit +Inf bucket.
//
// Histograms are always on — unlike spans there is no enabled switch —
// so the hot paths pay one Observe unconditionally. That cost (tens of
// nanoseconds) is the whole overhead budget for latency metrics.
type Histogram struct {
	bounds []int64 // immutable after New, so Observe reads it without a lock
	counts []atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The bounds slice is copied; an extra +Inf bucket is implied.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	slices.Sort(b)
	// The bucket array is allocated in whole cache lines (8 words), so it
	// lands in a size class that never shares a line with a neighbouring
	// object: histograms sharded per caller (one per open file in
	// internal/core) then really are private to their caller's core.
	n := len(b) + 1
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, n, (n+7)&^7),
	}
}

// Merge adds o's observations into h; both must have been built over the
// same bounds. Sharded histograms are summed this way at read time, so a
// total is exact whenever no Observe is in flight.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.sum.Add(o.sum.Load())
	h.count.Add(o.count.Load())
}

// Observe records one value. Lock-free and allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; len(bounds) means +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts has
// one entry per bound plus the +Inf bucket (per-bucket, not
// cumulative).
type HistogramSnapshot struct {
	Bounds []int64
	Counts []int64
	Sum    int64
	Count  int64
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may tear slightly between buckets and sum; each field is internally
// consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// LatencyBounds is the standard latency ladder in nanoseconds:
// 1µs .. 5s in a 1/2.5/5 progression. 13 finite buckets.
var LatencyBounds = []int64{
	1_000, 5_000, 25_000, 100_000, 250_000,
	1_000_000, 5_000_000, 25_000_000, 100_000_000, 250_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000,
}

// SizeBounds is the standard size ladder in bytes: 512B .. 64MiB by
// powers of four-ish. 9 finite buckets.
var SizeBounds = []int64{
	512, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20,
}
