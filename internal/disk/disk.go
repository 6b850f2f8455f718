// Package disk models a rotational disk drive in virtual time, with an
// explicit seek/transfer cost split so that access-pattern effects — the
// heart of the paper's Fig. 10 argument — emerge from layout rather than
// from tuned constants.
//
// The modelled drive follows the paper's testbed disk (Seagate
// ST3250620NS, 250 GB, 7200 rpm SATA): ~78 MB/s sustained transfer, short
// seeks of a couple of milliseconds, full-stroke seeks near 8 ms, and
// ~4 ms of average rotational latency charged whenever the head leaves a
// sequential stream.
package disk

import (
	"math"

	"crfs/internal/des"
)

// Params describes a drive. Zero values select the ST3250620NS defaults.
type Params struct {
	// CapacityBytes is the addressable span used to scale seek distance.
	CapacityBytes int64
	// TransferBps is the sustained media rate in bytes/second.
	TransferBps int64
	// SeekMin is the track-to-track seek+settle time.
	SeekMin des.Duration
	// SeekMax is the full-stroke seek time.
	SeekMax des.Duration
	// RotLatency is the average rotational latency charged on any
	// non-sequential access.
	RotLatency des.Duration
	// SeqThreshold is the gap (bytes) below which an access counts as
	// sequential: close enough that no head movement is charged.
	SeqThreshold int64
}

func (p Params) withDefaults() Params {
	if p.CapacityBytes == 0 {
		p.CapacityBytes = 250 << 30
	}
	if p.TransferBps == 0 {
		p.TransferBps = 78 << 20
	}
	if p.SeekMin == 0 {
		p.SeekMin = 800 * des.Microsecond
	}
	if p.SeekMax == 0 {
		p.SeekMax = 8 * des.Millisecond
	}
	if p.RotLatency == 0 {
		p.RotLatency = 4160 * des.Microsecond // 7200 rpm: half a revolution
	}
	if p.SeqThreshold == 0 {
		p.SeqThreshold = 64 << 10
	}
	return p
}

// Op is one completed disk transfer, for blktrace-style analysis.
type Op struct {
	Start des.Time     // virtual time the transfer began service
	Pos   int64        // byte address of the first byte
	Len   int64        // transfer length
	Seek  des.Duration // positioning cost charged (0 if sequential)
	Tag   string       // issuing stream, e.g. "node3/proc5" or "crfs-io2"
}

// Stats summarizes a disk's activity.
type Stats struct {
	Ops          int64
	SeqOps       int64 // ops that continued the previous stream
	Seeks        int64 // ops that paid positioning cost
	BytesWritten int64
	BusyTime     des.Duration // total service time
	SeekTime     des.Duration // portion spent positioning
}

// Sequentiality returns the fraction of operations that were sequential
// continuations of the head position.
func (s Stats) Sequentiality() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.SeqOps) / float64(s.Ops)
}

// Disk is a single drive: one request at a time, FIFO service order.
type Disk struct {
	env    *des.Env
	params Params
	res    *des.Resource
	head   int64 // byte address after the last transfer
	moved  bool  // head has served at least one op
	stats  Stats
	// Trace, when non-nil, receives every completed operation.
	Trace func(Op)
}

// New returns a drive attached to env.
func New(env *des.Env, params Params) *Disk {
	return &Disk{env: env, params: params.withDefaults(), res: des.NewResource(env, 1)}
}

// Params returns the effective drive parameters.
func (d *Disk) Params() Params { return d.params }

// Stats returns a snapshot of the drive's counters.
func (d *Disk) Stats() Stats { return d.stats }

// QueueLen returns the number of requests waiting for the drive.
func (d *Disk) QueueLen() int { return d.res.QueueLen() }

// Head returns the byte address following the last transfer — the
// position a sequential continuation would start at.
func (d *Disk) Head() int64 { return d.head }

// seekCost returns the positioning cost to reach pos from the current
// head position.
func (d *Disk) seekCost(pos int64) des.Duration {
	if !d.moved {
		return d.params.SeekMin + d.params.RotLatency
	}
	dist := pos - d.head
	if dist < 0 {
		dist = -dist
	}
	if dist <= d.params.SeqThreshold {
		return 0
	}
	frac := float64(dist) / float64(d.params.CapacityBytes)
	if frac > 1 {
		frac = 1
	}
	seek := d.params.SeekMin +
		des.Duration(float64(d.params.SeekMax-d.params.SeekMin)*math.Sqrt(frac))
	return seek + d.params.RotLatency
}

// Write transfers len bytes to byte address pos, blocking the calling
// process for queueing, positioning, and media time.
func (d *Disk) Write(p *des.Proc, pos, length int64, tag string) {
	if length <= 0 {
		return
	}
	d.res.Acquire(p, 1)
	defer d.res.Release(1)
	start := p.Now()
	seek := d.seekCost(pos)
	transfer := des.Duration(float64(length) / float64(d.params.TransferBps) * float64(des.Second))
	p.Wait(seek + transfer)
	d.head = pos + length
	d.moved = true

	d.stats.Ops++
	if seek == 0 {
		d.stats.SeqOps++
	} else {
		d.stats.Seeks++
		d.stats.SeekTime += seek
	}
	d.stats.BusyTime += seek + transfer
	d.stats.BytesWritten += length
	if d.Trace != nil {
		d.Trace(Op{Start: start, Pos: pos, Len: length, Seek: seek, Tag: tag})
	}
}
