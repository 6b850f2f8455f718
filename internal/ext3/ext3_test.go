package ext3

import (
	"fmt"
	"testing"

	"crfs/internal/des"
	"crfs/internal/simio"
)

// smallLimits returns params with tiny thresholds so tests exercise the
// throttle machinery with little data.
func smallLimits() Params {
	return Params{
		HardDirtyLimit: 1 << 20,
		BgThresh:       64 << 10,
		MinTaskThresh:  32 << 10,
		StallQuantum:   32 << 10,
	}
}

func TestSubPageWritesAbsorbed(t *testing.T) {
	env := des.New()
	fs := New(env, "n0", Params{})
	var dur des.Duration
	env.Spawn("w", func(p *des.Proc) {
		f := fs.Open(p, "ckpt")
		t0 := p.Now()
		// 64-byte header records within one page: only the first write
		// allocates a page.
		for i := int64(0); i < 50; i++ {
			f.Write(p, i*64, 64)
		}
		dur = p.Now() - t0
	})
	env.Run()
	env.Shutdown()
	// 50 writes x ~2 us VFS cost, no throttling, no disk.
	if des.Seconds(dur) > 0.001 {
		t.Errorf("sub-page writes took %.4fs, want ~0.0001s", des.Seconds(dur))
	}
	if fs.Disk().Stats().Ops != 0 {
		t.Errorf("sub-page writes reached disk: %+v", fs.Disk().Stats())
	}
}

func TestDirtyAccounting(t *testing.T) {
	env := des.New()
	fs := New(env, "n0", Params{HardDirtyLimit: 1 << 30, BgThresh: 1 << 29})
	env.Spawn("w", func(p *des.Proc) {
		f := fs.Open(p, "a")
		f.Write(p, 0, 10000) // 3 pages
	})
	env.Run()
	env.Shutdown()
	if fs.DirtyBytes() != 12288 {
		t.Errorf("dirty = %d, want 12288 (3 pages)", fs.DirtyBytes())
	}
}

func TestThrottleKicksIn(t *testing.T) {
	env := des.New()
	fs := New(env, "n0", smallLimits())
	fs.AddDirtier()
	env.Spawn("w", func(p *des.Proc) {
		f := fs.Open(p, "a")
		var off int64
		for i := 0; i < 200; i++ { // 200 x 8 KB = 1.6 MB > limits
			f.Write(p, off, 8192)
			off += 8192
		}
	})
	env.Run()
	env.Shutdown()
	st := fs.Stats()
	if st.Stalls == 0 {
		t.Error("expected forced-writeback stalls")
	}
	if st.WrittenBack == 0 {
		t.Error("no bytes written back")
	}
	if fs.Disk().Stats().Ops == 0 {
		t.Error("disk never used")
	}
}

func TestHardLimitBlocks(t *testing.T) {
	// Several writers issuing large writes outpace the per-write stall
	// pacing (each waits only one quantum while adding far more), so the
	// backlog must climb to the hard ceiling and block there.
	env := des.New()
	pr := smallLimits()
	pr.StallQuantum = 4 << 10
	fs := New(env, "n0", pr)
	for w := 0; w < 8; w++ {
		w := w
		fs.AddDirtier()
		env.Spawn(fmt.Sprintf("w%d", w), func(p *des.Proc) {
			f := fs.Open(p, fmt.Sprintf("f%d", w))
			var off int64
			for i := 0; i < 8; i++ { // 8 writers x 8 x 512 KB = 32 MB
				f.Write(p, off, 512<<10)
				off += 512 << 10
			}
		})
	}
	env.Run()
	env.Shutdown()
	if fs.Stats().HardBlocks == 0 {
		t.Error("hard dirty limit never engaged")
	}
	if fs.DirtyBytes() >= fs.Params().HardDirtyLimit {
		t.Errorf("dirty %d still at/above hard limit", fs.DirtyBytes())
	}
}

func TestFewLargeWritesBeatManyMediumWrites(t *testing.T) {
	// The paper's core ext3 claim: the same volume written as few large
	// chunks by few writers completes much faster than as many medium
	// writes by many writers.
	const total = 64 << 20
	run := func(writers int, writeSize int64) des.Time {
		env := des.New()
		fs := New(env, "n0", Params{})
		per := total / int64(writers)
		var finished des.Time // slowest writer's completion (write+close,
		// the paper's metric) — excludes background drain afterwards
		for w := 0; w < writers; w++ {
			w := w
			fs.AddDirtier()
			env.Spawn(fmt.Sprintf("w%d", w), func(p *des.Proc) {
				f := fs.Open(p, fmt.Sprintf("ckpt%d", w))
				for off := int64(0); off < per; off += writeSize {
					f.Write(p, off, writeSize)
				}
				f.Close(p)
				if p.Now() > finished {
					finished = p.Now()
				}
			})
		}
		env.Run()
		env.Shutdown()
		return finished
	}
	manyMedium := run(8, 8<<10) // 8 writers x 8 KB writes
	fewLarge := run(4, 4<<20)   // 4 writers x 4 MB writes
	if fewLarge >= manyMedium {
		t.Fatalf("large writes (%.2fs) not faster than medium (%.2fs)",
			des.Seconds(fewLarge), des.Seconds(manyMedium))
	}
	// This measures only the backend ingest asymmetry; the end-to-end
	// CRFS gain additionally includes buffer-pool absorption, which the
	// cluster-level experiments exercise.
	if ratio := float64(manyMedium) / float64(fewLarge); ratio < 1.25 {
		t.Errorf("speedup only %.2fx, want >= 1.25x", ratio)
	}
}

func TestLayoutInterleavingCausesSeeks(t *testing.T) {
	// Concurrent medium-write streams must produce a seekier disk trace
	// (more head repositionings per byte written) than a few large-chunk
	// streams (Fig. 10).
	seeksPerMB := func(writers int, writeSize int64) float64 {
		env := des.New()
		fs := New(env, "n0", Params{})
		const per = 16 << 20
		for w := 0; w < writers; w++ {
			w := w
			fs.AddDirtier()
			env.Spawn(fmt.Sprintf("w%d", w), func(p *des.Proc) {
				f := fs.Open(p, fmt.Sprintf("f%d", w))
				for off := int64(0); off < per; off += writeSize {
					f.Write(p, off, writeSize)
				}
			})
		}
		env.Run()
		// Force everything to disk so layout fully expresses itself.
		env.Spawn("drain", func(p *des.Proc) { fs.Drain(p) })
		env.Run()
		env.Shutdown()
		st := fs.Disk().Stats()
		return float64(st.Seeks) / (float64(st.BytesWritten) / (1 << 20))
	}
	native := seeksPerMB(8, 8<<10)
	crfs := seeksPerMB(2, 4<<20)
	if crfs >= native {
		t.Fatalf("seeks/MB: crfs-style %.3f >= native-style %.3f", crfs, native)
	}
}

func TestReservationWindowGrowsWithFile(t *testing.T) {
	// Two interleaved writers: their allocations alternate at the global
	// cursor, so each file's layout runs cannot merge and expose the
	// per-inode reservation-window sizes, which must grow with the file.
	env := des.New()
	fs := New(env, "n0", Params{HardDirtyLimit: 1 << 30, BgThresh: 1 << 29})
	gate := des.NewNotify(env)
	for w := 0; w < 2; w++ {
		w := w
		env.Spawn(fmt.Sprintf("w%d", w), func(p *des.Proc) {
			f := fs.Open(p, fmt.Sprintf("f%d", w))
			for off := int64(0); off < 8<<20; off += 64 << 10 {
				f.Write(p, off, 64<<10)
				gate.Broadcast()
				p.Wait(des.Microsecond) // interleave allocations
			}
		})
	}
	env.Run()
	env.Shutdown()
	ino := fs.inodes["f0"]
	if len(ino.runs) < 2 {
		t.Fatalf("expected multiple layout runs, got %d", len(ino.runs))
	}
	first, last := ino.runs[0].len, ino.runs[len(ino.runs)-1].len
	if last <= first {
		t.Errorf("window did not grow: first %d, last %d (runs %d)", first, last, len(ino.runs))
	}
}

func TestSyncDrainsFile(t *testing.T) {
	env := des.New()
	fs := New(env, "n0", Params{HardDirtyLimit: 1 << 30, BgThresh: 1 << 29})
	env.Spawn("w", func(p *des.Proc) {
		f := fs.Open(p, "a")
		f.Write(p, 0, 1<<20)
		f.Sync(p)
	})
	env.Run()
	env.Shutdown()
	if fs.DirtyBytes() != 0 {
		t.Errorf("dirty after sync = %d", fs.DirtyBytes())
	}
	if fs.Disk().Stats().BytesWritten != 1<<20 {
		t.Errorf("disk writes = %d", fs.Disk().Stats().BytesWritten)
	}
}

func TestDrainWaitsForCompetingWriteback(t *testing.T) {
	env := des.New()
	fs := New(env, "n0", Params{HardDirtyLimit: 1 << 30, BgThresh: 1 << 29})
	env.Spawn("w", func(p *des.Proc) {
		f := fs.Open(p, "a")
		f.Write(p, 0, 8<<20)
		fs.Drain(p)
		if fs.DirtyBytes() != 0 {
			t.Error("drain returned with dirty bytes")
		}
	})
	env.Run()
	env.Shutdown()
}

func TestMoreDirtiersLowerThreshold(t *testing.T) {
	env := des.New()
	fs := New(env, "n0", Params{})
	one := fs.taskThresh()
	for i := 0; i < 7; i++ {
		fs.AddDirtier()
	}
	eight := fs.taskThresh()
	if eight >= one {
		t.Errorf("threshold with 8 dirtiers (%d) not below 1 dirtier (%d)", eight, one)
	}
	for i := 0; i < 7; i++ {
		fs.RemoveDirtier()
	}
	if fs.taskThresh() != one {
		t.Error("threshold did not recover after RemoveDirtier")
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() des.Time {
		env := des.New()
		fs := New(env, "n0", Params{})
		for w := 0; w < 4; w++ {
			w := w
			fs.AddDirtier()
			env.Spawn(fmt.Sprintf("w%d", w), func(p *des.Proc) {
				f := fs.Open(p, fmt.Sprintf("f%d", w))
				for off := int64(0); off < 4<<20; off += 12 << 10 {
					f.Write(p, off, 12<<10)
				}
			})
		}
		end := env.Run()
		env.Shutdown()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

var _ simio.FS = (*FS)(nil)
