// Package a exercises the atomicstats analyzer: mixed counter structs.
package a

import "sync/atomic"

// statCounters mirrors the real core counter struct; the plain field is
// the seeded bug.
type statCounters struct {
	writes  atomic.Int64
	reads   atomic.Int64
	flushes int64 // want `plain int64 counter flushes in atomic counter struct statCounters`
	label   string
}

// Stats is a plain point-in-time snapshot: no atomic fields, no rule.
type Stats struct {
	Writes int64
	Reads  int64
}

// tallies holds nothing but counters, so it qualifies structurally even
// without a counter-ish name.
type tallies struct {
	hits   atomic.Int64
	misses int64 // want `plain int64 counter misses in atomic counter struct tallies`
}

// chunk mirrors core's buffer-pool chunk: an atomic refcount next to
// mutex-guarded plain fields. Neither counter-named nor counters-only,
// so the rule stays out of its way.
type chunk struct {
	buf  []byte
	refs atomic.Int32
	seq  uint64 // guarded by the owner's mutex; clean
	done bool   // guarded by the owner's mutex; clean
}

func snapshot(c *statCounters) Stats {
	return Stats{Writes: c.writes.Load(), Reads: c.reads.Load()}
}
