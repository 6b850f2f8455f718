// Package fuse models the FUSE transport that CRFS sits behind (§II-A of
// the paper).
//
// CRFS relies on FUSE for exactly two behaviours, both captured here:
//
//  1. Interception: application filesystem calls are routed to the
//     user-level filesystem. In this library that is a plain function
//     call, and in the simulator a latency-charged hop.
//  2. Request granularity: the FUSE kernel module splits reads and writes
//     into requests of at most MaxWrite bytes — 4 KB by default on the
//     paper's Linux 2.6.30, or 128 KB when the "big_writes" mount option
//     is enabled (§V-A: "We enable the big writes option for FUSE ... to
//     deliver full performance").
//
// The simulator (internal/simcrfs) splits transfers at RequestSize and
// charges each piece the cost model below.
package fuse

// Request size limits of the FUSE kernel module.
const (
	// DefaultMaxWrite is the per-request payload ceiling without
	// big_writes: one page.
	DefaultMaxWrite = 4 << 10
	// BigWritesMaxWrite is the ceiling with the big_writes mount option.
	BigWritesMaxWrite = 128 << 10
)

// Cost model for the simulator, calibrated against FUSE 2.8 measurements
// on hardware of the paper's era (Xeon E5345, Linux 2.6.30): a request
// costs two user/kernel crossings plus one payload copy through the FUSE
// device.
const (
	// CrossingCostNs is the fixed virtual-time cost of dispatching one
	// FUSE request (enqueue, context switches, dequeue), in nanoseconds.
	CrossingCostNs = 9_000
	// CopyCostNsPerByte is the virtual-time cost of moving one payload
	// byte through the FUSE device, in nanoseconds. Every request is
	// copied twice (application to kernel, kernel to daemon), and 0.9
	// ns/B total matches the ~1 GB/s large-write ceiling of FUSE 2.8
	// that Fig. 5 of the paper measures.
	CopyCostNsPerByte = 0.9
)

// RequestCostNs returns the modelled virtual-time cost of one FUSE request
// carrying n payload bytes.
func RequestCostNs(n int64) int64 {
	return CrossingCostNs + int64(CopyCostNsPerByte*float64(n))
}

// Config selects the mount options that affect request granularity.
type Config struct {
	// BigWrites enables 128 KB write requests (the paper's setting).
	BigWrites bool
	// MaxWrite overrides the request ceiling when positive; otherwise it
	// follows BigWrites.
	MaxWrite int
}

// RequestSize returns the effective per-request payload ceiling.
func (c Config) RequestSize() int {
	if c.MaxWrite > 0 {
		return c.MaxWrite
	}
	if c.BigWrites {
		return BigWritesMaxWrite
	}
	return DefaultMaxWrite
}
