// Package ext3 models a node-local ext3 filesystem of the paper's era
// (Linux 2.6.30) in virtual time: the VFS write path with page-cache
// copying, block allocation with per-inode reservation windows, dirty-page
// accounting with per-task throttling (balance_dirty_pages), and a
// background writeback daemon draining dirty extents to a rotational disk.
//
// The model reproduces the two native-checkpoint pathologies the paper
// profiles (§III):
//
//   - Medium writes are expensive under concurrency: every page-allocating
//     write performs a throttle check; once a node's dirty backlog exceeds
//     the per-task threshold (which shrinks as more tasks dirty the
//     filesystem), the writing task synchronously writes back a quantum of
//     the oldest dirty data. Many small/medium writers therefore degrade
//     to synchronous, seek-dominated writeback, while few large writers
//     (CRFS's IO threads) pay at most one quantum per large write and
//     mostly run at memory-copy speed.
//
//   - The on-disk layout interleaves under concurrency: files allocate
//     space in per-inode reservation windows that grow with file size, so
//     eight concurrent medium-write streams interleave small windows and
//     writeback seeks between them (Fig. 10a), whereas CRFS's few 4 MB
//     streams allocate large contiguous runs (Fig. 10b).
//
// Constants are calibrated against the paper's measurements; the shape of
// the behaviour (who wins, where crossovers fall) follows from the
// mechanisms above rather than from per-experiment tuning.
package ext3

import (
	"fmt"

	"crfs/internal/des"
	"crfs/internal/disk"
	"crfs/internal/simio"
)

// Params configures the model. Zero values select calibrated defaults for
// a compute node of the paper's testbed (8-core Xeon, 6 GB RAM, one
// ST3250620NS disk).
type Params struct {
	// PageSize is the VFS page size.
	PageSize int64
	// VFSBase is the fixed cost of a write/read syscall through the VFS.
	VFSBase des.Duration
	// CopyBps is the memory-copy bandwidth of the page-cache copy.
	CopyBps int64
	// OpenCost is the cost of open/create (dentry + inode + journal).
	OpenCost des.Duration
	// HardDirtyLimit is the node's dirty-page ceiling; writers block on
	// background writeback when the backlog reaches it (dirty_ratio of
	// memory available under application pressure).
	HardDirtyLimit int64
	// TaskDivisorK controls the per-task throttle threshold:
	// taskThresh = HardDirtyLimit / (1 + K·dirtiers).
	TaskDivisorK float64
	// MinTaskThresh floors the per-task threshold.
	MinTaskThresh int64
	// BgThresh is the backlog at which background writeback starts.
	BgThresh int64
	// StallQuantum caps the writeback progress a throttled task must
	// wait for per page-allocating write. A task over the threshold
	// waits for min(StallQuantum, bytes it just dirtied) of writeback to
	// complete, so many small dirtiers are paced to the (layout-
	// dependent) writeback rate while a few large-chunk dirtiers pay a
	// bounded toll per chunk.
	StallQuantum int64
	// ResWindowBase and ResWindowMax bound the per-inode allocation
	// reservation window, which grows with file size.
	ResWindowBase int64
	ResWindowMax  int64
	// CreditCap bounds banked stall credit (defaults to StallQuantum).
	CreditCap int64
	// ReclaimFactor, when positive, slows page-cache copies as the
	// backlog approaches the hard limit (page reclaim pressure): the
	// copy cost scales up to (1 + ReclaimFactor) at a full cache.
	ReclaimFactor float64
	// WBBatch is the per-inode batch size of one writeback visit.
	WBBatch int64
	// MergeCap caps dirty-extent merging, bounding single disk ops.
	MergeCap int64
	// Disk configures the underlying drive. The default transfer rate
	// is below the drive's media rate: it is the effective data-path
	// rate under ext3's ordered-mode journalling and metadata traffic.
	Disk disk.Params
}

func (p Params) withDefaults() Params {
	def := func(v *int64, d int64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&p.PageSize, 4096)
	if p.VFSBase == 0 {
		p.VFSBase = 2 * des.Microsecond
	}
	def(&p.CopyBps, 2200<<20)
	if p.OpenCost == 0 {
		p.OpenCost = 60 * des.Microsecond
	}
	def(&p.HardDirtyLimit, 96<<20)
	if p.TaskDivisorK == 0 {
		p.TaskDivisorK = 2.0
	}
	def(&p.MinTaskThresh, 4<<20)
	def(&p.BgThresh, 8<<20)
	def(&p.StallQuantum, 1536<<10)
	if p.CreditCap == 0 {
		p.CreditCap = p.StallQuantum
	}
	def(&p.ResWindowBase, 128<<10)
	def(&p.ResWindowMax, 1<<20)
	def(&p.WBBatch, 4<<20)
	def(&p.MergeCap, 8<<20)
	if p.Disk.TransferBps == 0 {
		p.Disk.TransferBps = 48 << 20
	}
	return p
}

// extent is a contiguous dirty byte range on disk.
type extent struct {
	pos int64 // disk byte address
	len int64
}

// run is a contiguous file-to-disk mapping, for reads.
type run struct {
	fileOff int64
	pos     int64
	len     int64
}

type inode struct {
	name      string
	size      int64 // logical size
	allocated int64 // bytes with blocks assigned (page-rounded)
	// Reservation window state.
	winPos  int64 // disk address of next grant inside the window
	winLeft int64 // bytes left in the window
	// Layout for reads.
	runs []run
	// Dirty extents in dirtying order.
	dirty      []extent
	dirtyBytes int64
	drained    int64 // bytes of this inode written back so far
	queued     bool  // in fs.dirtyQ
}

// FS is one simulated ext3 filesystem instance (one per node, or one per
// NFS/Lustre server). It implements simio.FS.
type FS struct {
	env    *des.Env
	name   string
	params Params
	dsk    *disk.Disk

	cursor     int64 // global allocation cursor
	inodes     map[string]*inode
	dirtyQ     []*inode // round-robin writeback order
	dirtyTotal int64
	dirtiers   int

	progress     *des.Notify // writeback progress (hard-limit waiters)
	newDirt      *des.Notify // wakes the background daemon
	stallWaiters int         // writers currently waiting on progress
	consumed     int64       // writeback bytes consumed as stall credit

	// Counters.
	stalls       int64
	stallTime    des.Duration
	hardBlocks   int64
	hardTime     des.Duration
	writtenBack  int64
	bytesDirtied int64
}

// New returns an ext3 model attached to env. name tags its disk trace.
func New(env *des.Env, name string, params Params) *FS {
	fs := &FS{
		env:      env,
		name:     name,
		params:   params.withDefaults(),
		inodes:   make(map[string]*inode),
		progress: des.NewNotify(env),
		newDirt:  des.NewNotify(env),
	}
	fs.dsk = disk.New(env, fs.params.Disk)
	env.Spawn(name+"/flush", fs.bgWriteback)
	return fs
}

// Disk exposes the underlying drive (trace hook, stats).
func (fs *FS) Disk() *disk.Disk { return fs.dsk }

// Params returns the effective parameters.
func (fs *FS) Params() Params { return fs.params }

// DirtyBytes returns the current dirty backlog.
func (fs *FS) DirtyBytes() int64 { return fs.dirtyTotal }

// Stats summarizes throttling behaviour.
type Stats struct {
	Stalls       int64        // synchronous writeback events
	StallTime    des.Duration // time writers spent in forced writeback
	HardBlocks   int64        // waits at the hard dirty limit
	HardTime     des.Duration // time spent in hard-limit waits
	WrittenBack  int64        // bytes written back to disk
	BytesDirtied int64        // bytes that entered the page cache
}

// Stats returns a snapshot of the throttle counters.
func (fs *FS) Stats() Stats {
	return Stats{
		Stalls: fs.stalls, StallTime: fs.stallTime,
		HardBlocks: fs.hardBlocks, HardTime: fs.hardTime,
		WrittenBack: fs.writtenBack, BytesDirtied: fs.bytesDirtied,
	}
}

// AddDirtier implements simio.FS.
func (fs *FS) AddDirtier() { fs.dirtiers++ }

// RemoveDirtier implements simio.FS.
func (fs *FS) RemoveDirtier() {
	if fs.dirtiers > 0 {
		fs.dirtiers--
	}
}

func (fs *FS) taskThresh() int64 {
	d := fs.dirtiers
	if d < 1 {
		d = 1
	}
	t := int64(float64(fs.params.HardDirtyLimit) / (1 + fs.params.TaskDivisorK*float64(d)))
	if t < fs.params.MinTaskThresh {
		t = fs.params.MinTaskThresh
	}
	return t
}

// Open implements simio.FS.
func (fs *FS) Open(p *des.Proc, name string) simio.File {
	p.Wait(fs.params.OpenCost)
	ino, ok := fs.inodes[name]
	if !ok {
		ino = &inode{name: name}
		fs.inodes[name] = ino
	}
	return &file{fs: fs, ino: ino}
}

// allocate assigns disk space for byte range [ino.allocated, newAlloc) and
// records it as dirty, interleaving with other files through the global
// cursor exactly as concurrent allocation does on a real disk.
func (fs *FS) allocate(ino *inode, newAlloc int64) {
	need := newAlloc - ino.allocated
	for need > 0 {
		if ino.winLeft == 0 {
			// Start a new reservation window; it grows with the file,
			// capped at ResWindowMax. A single large write spans
			// several windows, but because the whole allocation happens
			// in one call (no competing allocator activity in between),
			// those windows are adjacent at the cursor and the dirty
			// extents merge — large writes get contiguous layout, as on
			// real ext3, while interleaved small writers fragment.
			w := ino.allocated
			if w < fs.params.ResWindowBase {
				w = fs.params.ResWindowBase
			}
			if w > fs.params.ResWindowMax {
				w = fs.params.ResWindowMax
			}
			ino.winPos = fs.cursor
			ino.winLeft = w
			fs.cursor += w
		}
		take := need
		if take > ino.winLeft {
			take = ino.winLeft
		}
		fs.addDirty(ino, ino.winPos, take)
		fs.addRun(ino, ino.allocated, ino.winPos, take)
		ino.winPos += take
		ino.winLeft -= take
		ino.allocated += take
		need -= take
	}
}

func (fs *FS) addRun(ino *inode, fileOff, pos, length int64) {
	if n := len(ino.runs); n > 0 {
		last := &ino.runs[n-1]
		if last.fileOff+last.len == fileOff && last.pos+last.len == pos {
			last.len += length
			return
		}
	}
	ino.runs = append(ino.runs, run{fileOff: fileOff, pos: pos, len: length})
}

func (fs *FS) addDirty(ino *inode, pos, length int64) {
	fs.dirtyTotal += length
	ino.dirtyBytes += length
	fs.bytesDirtied += length
	if n := len(ino.dirty); n > 0 {
		last := &ino.dirty[n-1]
		if last.pos+last.len == pos && last.len+length <= fs.params.MergeCap {
			last.len += length
			if !ino.queued {
				fs.enqueueDirty(ino)
			}
			return
		}
	}
	ino.dirty = append(ino.dirty, extent{pos: pos, len: length})
	if !ino.queued {
		fs.enqueueDirty(ino)
	}
}

func (fs *FS) enqueueDirty(ino *inode) {
	ino.queued = true
	fs.dirtyQ = append(fs.dirtyQ, ino)
	if fs.dirtyTotal > fs.params.BgThresh {
		fs.newDirt.Broadcast()
	}
}

// writeback writes back up to target bytes of dirty data, visiting queued
// inodes with per-inode batches. It returns the number of bytes written.
// The calling process blocks for the disk time.
func (fs *FS) writeback(p *des.Proc, target int64) int64 {
	var written int64
	for written < target && len(fs.dirtyQ) > 0 {
		// The block layer's elevator keeps the head moving through
		// contiguous runs: prefer the inode whose oldest dirty extent
		// continues the current head position, and otherwise the one
		// with the largest contiguous run (request merging favours it).
		// This is what lets CRFS's uniformly large chunks drain as long
		// sequential trains (Fig. 10b) while interleaved medium writers
		// seek between small windows (Fig. 10a), and it advantages
		// processes whose large regions were dumped early (the
		// completion spread of Fig. 3).
		best, sticky := 0, -1
		head := fs.dsk.Head()
		for i, cand := range fs.dirtyQ {
			if len(cand.dirty) == 0 {
				continue
			}
			if cand.dirty[0].pos == head {
				sticky = i
				break
			}
			if len(fs.dirtyQ[best].dirty) > 0 &&
				cand.dirty[0].len > fs.dirtyQ[best].dirty[0].len {
				best = i
			}
		}
		if sticky >= 0 {
			best = sticky
		}
		ino := fs.dirtyQ[best]
		fs.dirtyQ = append(fs.dirtyQ[:best], fs.dirtyQ[best+1:]...)
		ino.queued = false
		var batch int64
		for batch < fs.params.WBBatch && written < target && len(ino.dirty) > 0 {
			e := &ino.dirty[0]
			take := e.len
			if take > fs.params.WBBatch-batch {
				take = fs.params.WBBatch - batch
			}
			if take > target-written {
				take = target - written
			}
			// Claim the bytes before yielding to the disk so concurrent
			// writeback callers never write the same extent twice.
			e.pos += take
			e.len -= take
			pos := e.pos - take
			if e.len == 0 {
				ino.dirty = ino.dirty[1:]
			}
			ino.dirtyBytes -= take
			fs.dirtyTotal -= take
			fs.dsk.Write(p, pos, take, ino.name)
			fs.writtenBack += take
			ino.drained += take
			batch += take
			written += take
			fs.progress.Broadcast()
		}
		if ino.dirtyBytes > 0 && !ino.queued {
			fs.enqueueDirty(ino)
		}
	}
	return written
}

// writebackFile drains one inode's dirty extents (fsync path).
func (fs *FS) writebackFile(p *des.Proc, ino *inode) {
	for len(ino.dirty) > 0 {
		e := &ino.dirty[0]
		take := e.len
		e.pos += take
		e.len -= take
		pos := e.pos - take
		ino.dirty = ino.dirty[1:]
		ino.dirtyBytes -= take
		fs.dirtyTotal -= take
		fs.dsk.Write(p, pos, take, ino.name)
		fs.writtenBack += take
		ino.drained += take
		fs.progress.Broadcast()
	}
}

// bgWriteback is the pdflush analogue: it drains the backlog toward
// BgThresh whenever it exceeds it.
func (fs *FS) bgWriteback(p *des.Proc) {
	for {
		if fs.dirtyTotal > 0 && (fs.dirtyTotal > fs.params.BgThresh || fs.stallWaiters > 0) {
			fs.writeback(p, fs.params.WBBatch)
			continue
		}
		fs.newDirt.Wait(p)
	}
}

// Drain synchronously writes back the whole backlog (used by experiments
// that measure data-on-disk time rather than the paper's write+close time).
func (fs *FS) Drain(p *des.Proc) {
	for fs.dirtyTotal > 0 {
		if fs.writeback(p, fs.dirtyTotal) == 0 {
			// Another process is writing the tail back; wait for it.
			fs.progress.Wait(p)
		}
	}
}

type file struct {
	fs  *FS
	ino *inode
}

func (f *file) Name() string { return f.ino.name }
func (f *file) Size() int64  { return f.ino.size }

// Write implements simio.File: VFS cost + page-cache copy, block
// allocation, then the dirty-throttling machinery described in the package
// comment.
func (f *file) Write(p *des.Proc, off, n int64) {
	if n < 0 || off < 0 {
		panic(fmt.Sprintf("ext3: invalid write off=%d n=%d", off, n))
	}
	fs := f.fs
	pr := fs.params
	copyCost := float64(n) / float64(pr.CopyBps) * float64(des.Second)
	if pr.ReclaimFactor > 0 {
		// Page reclaim pressure: copies slow as the cache fills.
		if half := pr.HardDirtyLimit / 2; fs.dirtyTotal > half {
			frac := float64(fs.dirtyTotal-half) / float64(half)
			if frac > 1 {
				frac = 1
			}
			copyCost *= 1 + pr.ReclaimFactor*frac
		}
	}
	p.Wait(pr.VFSBase + des.Duration(copyCost))
	if n == 0 {
		return
	}
	end := off + n
	if end > f.ino.size {
		f.ino.size = end
	}
	// Page-rounded allocation; sub-page appends allocate nothing.
	newAlloc := (end + pr.PageSize - 1) / pr.PageSize * pr.PageSize
	if newAlloc <= f.ino.allocated {
		return // absorbed entirely by existing pages
	}
	allocBytes := newAlloc - f.ino.allocated
	fs.allocate(f.ino, newAlloc)

	// balance_dirty_pages: once the backlog exceeds the per-task
	// threshold, dirtying is paced against writeback with a leaky
	// bucket: completed writeback accrues credit, and each allocating
	// write must consume min(bytes it dirtied, StallQuantum) of credit,
	// waiting for writeback progress when the bucket is empty. Small
	// dirtiers are thereby paced byte-for-byte to the writeback rate —
	// which depends on the disk layout their own write pattern produced
	// — while large chunk writers pay one bounded toll per chunk.
	if fs.dirtyTotal > fs.taskThresh() {
		need := allocBytes
		if need > pr.StallQuantum {
			need = pr.StallQuantum
		}
		// Credit banked while nobody was paced is forfeited beyond the
		// cap, so a long-idle writer cannot ride free.
		if fs.writtenBack-fs.consumed > pr.CreditCap {
			fs.consumed = fs.writtenBack - pr.CreditCap
		}
		if fs.writtenBack-fs.consumed < need {
			t0 := p.Now()
			fs.stalls++
			fs.stallWaiters++
			fs.newDirt.Broadcast()
			for fs.writtenBack-fs.consumed < need && fs.dirtyTotal > fs.taskThresh() {
				fs.progress.Wait(p)
			}
			fs.stallWaiters--
			fs.stallTime += p.Now() - t0
		}
		if fs.dirtyTotal > fs.taskThresh() {
			fs.consumed += need
		}
	}
	// Hard ceiling: block on background writeback.
	for fs.dirtyTotal >= pr.HardDirtyLimit {
		t0 := p.Now()
		fs.hardBlocks++
		fs.stallWaiters++
		fs.newDirt.Broadcast()
		fs.progress.Wait(p)
		fs.stallWaiters--
		fs.hardTime += p.Now() - t0
	}
}

// Read implements simio.File: page-cache copy for cached data; the model
// treats recently written data as cached and everything else as disk reads
// over the file's extent layout.
func (f *file) Read(p *des.Proc, off, n int64) {
	fs := f.fs
	pr := fs.params
	p.Wait(pr.VFSBase + des.Duration(float64(n)/float64(pr.CopyBps)*float64(des.Second)))
}

// Sync implements simio.File: synchronously write back this file's dirty
// extents.
func (f *file) Sync(p *des.Proc) {
	f.fs.writebackFile(p, f.ino)
}

// Close implements simio.File. ext3 close is free: no flush happens
// (matching the paper's native measurement, which ends at close without
// durability).
func (f *file) Close(p *des.Proc) {}

var _ simio.FS = (*FS)(nil)
var _ simio.File = (*file)(nil)
