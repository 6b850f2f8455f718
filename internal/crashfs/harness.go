package crashfs

import (
	"bytes"
	"fmt"
	"io"

	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/core"
	"crfs/internal/vfs"
)

// The crash-point harness: run a scripted workload through a real CRFS
// mount over a crashfs backend, then, for every crash point — each
// mutation boundary of the recorded log, plus torn cuts inside each
// write — replay the post-crash state, remount, and assert the
// durability contract:
//
//  1. Every byte a Sync or Close acknowledged before the cut reads back
//     byte-identical after remount.
//  2. Nothing overwritten after an acknowledgment is resurrected: a
//     readable byte must come from the acknowledged state or a later
//     write, never an earlier one.
//  3. Unsynced tails only ever shorten the file: the readable size sits
//     between the last acknowledged size and the largest size any
//     issued write produced, and unacknowledged extents read as issued
//     data or zeros — never garbage.
//  4. A torn container never fails the whole file: every crash point
//     remounts and reads without error, with salvage doing the work and
//     RecoveryStats reflecting it.
//  5. Checksums hold at every crash state: a power cut can only shorten
//     the backend log, never flip landed bytes, so no frame a verify
//     mount decodes on the read path, and none a full scrub of the crash
//     state verifies, may fail its payload checksum. A torn frame must fail structurally
//     (salvage truncates at the tear, counted as torn bytes), never
//     decode to phantom data behind a CRC the writer did not stamp.
//
// The record mount runs with IOThreads = 1 so the backend log is the
// flush order — the linear-history model crashfs replays. More IO
// threads would change what a cut leaves, not just interleave logs: a
// file's frames then land out of order, so a cut can leave a hole where
// one frame was reserved with later frames already written past it.
// That shape is not enumerated here; core's
// TestAppendAfterSalvageKeepsAckedBytes builds it by hand.

// StepKind discriminates workload steps.
type StepKind int

// Workload steps.
const (
	// StepWrite writes Len deterministic bytes at Off.
	StepWrite StepKind = iota
	// StepSync fsyncs the file: everything written so far becomes
	// acknowledged state the crash must preserve.
	StepSync
	// StepClose closes the file's handle (same acknowledgment as sync);
	// a later step may reopen it implicitly.
	StepClose
)

// Step is one scripted workload operation.
type Step struct {
	Kind StepKind
	File string
	Off  int64
	Len  int
}

// HarnessConfig configures one harness run.
type HarnessConfig struct {
	// Codec is the mount's chunk codec (nil = raw passthrough).
	Codec codec.Codec
	// ChunkSize is the mount's aggregation chunk size (small, so the
	// workload spans many chunks). Defaults to 64.
	ChunkSize int64
	// Repair opens every file read-write on the verify mounts, so each
	// open cuts a torn container to its intact prefix before reading.
	Repair bool
	// Compaction runs the offline compactor (compact.CompactDir) over
	// the recorded store after the workload's final acknowledgment, so
	// the replace protocol's mutations (temporary created, written,
	// renamed over the original) land in the crash log, and at every
	// crash point compacts the crash state after the first read and
	// re-reads it — proving compaction of any crash-state container
	// never changes the readable bytes, and that stray temporaries are
	// inert and swept.
	Compaction bool
	// Torn adds intra-write cuts (first byte, mid-payload, last-byte-
	// short) to the enumerated boundaries, exercising torn frames.
	Torn bool
	// Stride subsamples crash points (every Stride-th point, plus the
	// first and last); <= 1 checks every point.
	Stride int
	// Volatile replays every point in the volatile model.
	Volatile bool
}

// HarnessResult summarizes a run.
type HarnessResult struct {
	Mutations  int      // recorded backend mutations
	Points     int      // crash points verified
	Violations []string // durability contract violations (nil = proven)
	// Recovery totals across all verify mounts.
	Salvaged, Repaired, FramesDropped, BytesTruncated int64
	// Compaction totals: containers rewritten in the recorded store and
	// by the per-point compact-and-reread check.
	RecordCompactions, PointCompactions int64
	// Integrity totals across all verify mounts' reads and the rule-5
	// per-point scrubs: payloads whose checksum matched, and failures.
	// ChecksumFailed > 0 is always also a violation — crash states carry
	// no bit rot, only tears.
	ChecksumVerified, ChecksumFailed int64
}

// ack is one durability acknowledgment: after step Step returned, every
// mutation below LogLen is required state for file File.
type ack struct {
	file   string
	logLen int
	step   int
}

// payloadByte is the deterministic workload payload: distinct per
// (file, step) so overwrites are distinguishable, with short runs so
// deflate has something to compress.
func payloadByte(file string, step int, off int64) byte {
	h := 0
	for _, c := range file {
		h = h*31 + int(c)
	}
	return byte(h + step*37 + int(off/8))
}

// MixedWorkload is the harness's standard mixed write/sync/overwrite
// script over two files: sequential checkpoint streams with interior
// overwrites, interleaved syncs, and closes — the acceptance workload
// of the crash-consistency subsystem.
func MixedWorkload() []Step {
	return []Step{
		{StepWrite, "ckpt/a.img", 0, 100},
		{StepWrite, "ckpt/a.img", 100, 100},
		{StepWrite, "ckpt/b.img", 0, 150},
		{StepSync, "ckpt/a.img", 0, 0},
		{StepWrite, "ckpt/a.img", 200, 100},
		{StepWrite, "ckpt/a.img", 50, 80}, // overwrite before the sync point
		{StepWrite, "ckpt/b.img", 150, 90},
		{StepSync, "ckpt/b.img", 0, 0},
		{StepWrite, "ckpt/a.img", 300, 120},
		{StepWrite, "ckpt/b.img", 100, 60}, // overwrite of synced data
		{StepSync, "ckpt/a.img", 0, 0},
		{StepWrite, "ckpt/a.img", 0, 40}, // overwrite of synced data
		{StepWrite, "ckpt/b.img", 240, 100},
		{StepClose, "ckpt/b.img", 0, 0},
		{StepWrite, "ckpt/a.img", 0, 192}, // full-chunk rewrite: whole frames go dead
		{StepSync, "ckpt/a.img", 0, 0},
		{StepWrite, "ckpt/a.img", 420, 100},
		{StepClose, "ckpt/a.img", 0, 0},
	}
}

// RunHarness records the workload through a CRFS mount over a crashfs
// backend, then verifies the durability contract at every enumerated
// crash point. It returns the result (with any violations) and an error
// only for harness plumbing failures — contract violations are data,
// not errors.
func RunHarness(cfg HarnessConfig, steps []Step) (*HarnessResult, error) {
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 64
	}
	crash := New()
	if err := crash.MkdirAll("ckpt"); err != nil {
		return nil, err
	}
	opts := core.Options{
		ChunkSize:      cfg.ChunkSize,
		BufferPoolSize: 16 * cfg.ChunkSize,
		IOThreads:      1,
		Codec:          cfg.Codec,
	}
	fs, err := core.Mount(crash, opts)
	if err != nil {
		return nil, err
	}

	// Record phase: run the script, tracking the model content after
	// every step and the acknowledgment points.
	model := map[string][]byte{}
	var snaps []map[string][]byte
	var acks []ack
	handles := map[string]vfs.File{}
	handle := func(name string) (vfs.File, error) {
		if f, ok := handles[name]; ok {
			return f, nil
		}
		f, err := fs.Open(name, vfs.WriteOnly|vfs.Create)
		if err != nil {
			return nil, err
		}
		handles[name] = f
		return f, nil
	}
	for i, s := range steps {
		switch s.Kind {
		case StepWrite:
			f, err := handle(s.File)
			if err != nil {
				return nil, err
			}
			data := make([]byte, s.Len)
			for j := range data {
				data[j] = payloadByte(s.File, i, s.Off+int64(j))
			}
			if _, err := f.WriteAt(data, s.Off); err != nil {
				return nil, err
			}
			cur := model[s.File]
			if need := s.Off + int64(s.Len); int64(len(cur)) < need {
				grown := make([]byte, need)
				copy(grown, cur)
				cur = grown
			}
			copy(cur[s.Off:], data)
			model[s.File] = cur
		case StepSync:
			f, err := handle(s.File)
			if err != nil {
				return nil, err
			}
			if err := f.Sync(); err != nil {
				return nil, err
			}
			acks = append(acks, ack{file: s.File, logLen: crash.Len(), step: i})
		case StepClose:
			if f, ok := handles[s.File]; ok {
				delete(handles, s.File)
				if err := f.Close(); err != nil {
					return nil, err
				}
				acks = append(acks, ack{file: s.File, logLen: crash.Len(), step: i})
			}
		default:
			return nil, fmt.Errorf("crashfs: unknown step kind %d", s.Kind)
		}
		snap := map[string][]byte{}
		for name, data := range model {
			snap[name] = append([]byte(nil), data...)
		}
		snaps = append(snaps, snap)
	}
	for name, f := range handles {
		if err := f.Close(); err != nil {
			return nil, err
		}
		acks = append(acks, ack{file: name, logLen: crash.Len(), step: len(steps) - 1})
	}
	if err := fs.Unmount(); err != nil {
		return nil, err
	}
	// Unmount drains everything: a global acknowledgment.
	acks = append(acks, ack{file: "", logLen: crash.Len(), step: len(steps) - 1})
	var recordCompactions int64
	if cfg.Compaction {
		// Everything is acknowledged; the overwrites left dead frames.
		// Rewrite them in the recorded store, so every step of the replace
		// protocol is a crash point below.
		rep, err := compact.CompactDir(crash, ".")
		if err != nil {
			return nil, err
		}
		if len(rep.Problems) > 0 {
			return nil, fmt.Errorf("crashfs: compacting the recorded store: %s", rep.Format())
		}
		recordCompactions = int64(rep.Compacted)
	}

	// Enumerate crash points.
	points := crash.Boundaries()
	if cfg.Torn {
		for i := 0; i < crash.Len(); i++ {
			points = append(points, crash.TornPoints(i)...)
		}
	}
	if cfg.Stride > 1 {
		sampled := make([]Point, 0, len(points)/cfg.Stride+2)
		for i, p := range points {
			if i%cfg.Stride == 0 || i == len(points)-1 {
				sampled = append(sampled, p)
			}
		}
		points = sampled
	}

	res := &HarnessResult{
		Mutations:         crash.Len(),
		Points:            len(points),
		RecordCompactions: recordCompactions,
	}
	for _, p := range points {
		if err := verifyPoint(crash, cfg, p, snaps, acks, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyPoint checks the durability contract for one crash point.
func verifyPoint(crash *FS, cfg HarnessConfig, p Point, snaps []map[string][]byte, acks []ack, res *HarnessResult) error {
	p.Volatile = cfg.Volatile
	replayed, err := crash.Replay(p)
	if err != nil {
		return err
	}
	opts := core.Options{
		ChunkSize:      cfg.ChunkSize,
		BufferPoolSize: 16 * cfg.ChunkSize,
		IOThreads:      1,
		Codec:          cfg.Codec,
	}
	vfs2, err := core.Mount(replayed, opts)
	if err != nil {
		return err
	}
	defer vfs2.Unmount()
	violate := func(format string, args ...any) {
		if len(res.Violations) < 20 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("point{mut=%d,bytes=%d}: %s", p.Mut, p.Bytes, fmt.Sprintf(format, args...)))
		}
	}
	framed := cfg.Codec != nil && cfg.Codec.ID() != codec.RawID
	flag := vfs.ReadOnly
	if cfg.Repair {
		flag = vfs.ReadWrite
	}
	last := len(snaps) - 1
	first := map[string][]byte{} // what each file read as, before the crash state is compacted
	for name := range snaps[last] {
		ackStep := -1
		for _, a := range acks {
			if (a.file == name || a.file == "") && a.logLen <= p.Mut && a.step > ackStep {
				ackStep = a.step
			}
		}
		var ackContent []byte
		if ackStep >= 0 {
			ackContent = snaps[ackStep][name]
		}
		got, rerr := readAll(vfs2, name, flag)
		if rerr != nil {
			if len(ackContent) > 0 {
				violate("%s: unreadable after remount: %v", name, rerr)
			}
			continue
		}
		if framed && ackStep < 0 {
			// A cut inside the very first frame header of a brand-new
			// container leaves < HeaderSize bytes that cannot be
			// classified container-vs-plain; nothing was acknowledged, so
			// the bytes carry no contract. Skip content checks.
			if info, serr := replayed.Stat(name); serr == nil && info.Size < codec.HeaderSize {
				continue
			}
		}
		lo := max(ackStep, 0)
		var maxLen int64
		for t := lo; t <= last; t++ {
			if n := int64(len(snaps[t][name])); n > maxLen {
				maxLen = n
			}
		}
		if int64(len(got)) < int64(len(ackContent)) {
			violate("%s: %d readable bytes, %d were acknowledged", name, len(got), len(ackContent))
			continue
		}
		if int64(len(got)) > maxLen {
			violate("%s: %d readable bytes exceed any issued state (%d)", name, len(got), maxLen)
			continue
		}
		for x := range got {
			ok := false
			for t := lo; t <= last && !ok; t++ {
				s := snaps[t][name]
				ok = x < len(s) && s[x] == got[x]
			}
			if !ok && x >= len(ackContent) && got[x] == 0 {
				ok = true // unacknowledged extent not yet landed: a hole
			}
			if !ok {
				violate("%s: byte %d = %#x matches no post-acknowledgment state", name, x, got[x])
				break
			}
		}
		first[name] = got
	}
	if cfg.Compaction {
		// Compact the crash state — whatever shape the cut left each
		// container in (clean, torn, mid-replace with a stray temporary) —
		// under the mount, which holds no file open, and prove the
		// readable bytes are untouched and no temporary survives.
		rep, cerr := compact.CompactDir(replayed, ".")
		if cerr != nil {
			return cerr
		}
		res.PointCompactions += int64(rep.Compacted)
		for _, pr := range rep.Problems {
			violate("%s: compaction at crash state failed: %s", pr.Path, pr.Err)
		}
		if n, _ := vfs.SweepTemps(replayed, "."); n > 0 {
			violate("%d compaction temporaries survived CompactDir's sweep", n)
		}
		for name, got := range first {
			again, rerr := readAll(vfs2, name, flag)
			if rerr != nil {
				violate("%s: unreadable after crash-state compaction: %v", name, rerr)
			} else if !bytes.Equal(again, got) {
				violate("%s: crash-state compaction changed readable bytes (%d -> %d)", name, len(got), len(again))
			}
		}
	}
	if framed {
		// Rule 5: scrub the whole crash state, re-verifying every frame
		// the contract reads may not have touched (dead frames, files with
		// nothing acknowledged). Tears are expected debris — salvage has
		// already bounded them — but a corrupt or checksum-failing frame
		// cannot come from a cut: the log only ever loses its tail.
		srep, serr := compact.Scrub(replayed, ".", compact.ScrubOptions{Workers: 1})
		if serr != nil {
			return serr
		}
		if srep.CorruptFrames > 0 || srep.ChecksumFailures > 0 {
			violate("crash-state scrub found %d corrupt frames (%d checksum failures); a cut can only tear, not rot",
				srep.CorruptFrames, srep.ChecksumFailures)
		}
		res.ChecksumVerified += srep.ChecksumVerified
		res.ChecksumFailed += srep.ChecksumFailures
	}
	st := vfs2.Stats()
	if st.ChecksumFailed > 0 {
		violate("crash state failed %d payload checksums; torn frames must fail structurally, not decode to phantom data",
			st.ChecksumFailed)
	}
	res.ChecksumVerified += st.ChecksumVerified
	res.ChecksumFailed += st.ChecksumFailed
	res.Salvaged += st.ContainersSalvaged
	res.Repaired += st.ContainersRepaired
	res.FramesDropped += st.SalvageFramesDropped
	res.BytesTruncated += st.SalvageBytesTruncated
	return nil
}

// readAll reads a file's full logical content through the mount, opened
// with flag.
func readAll(fs *core.FS, name string, flag vfs.OpenFlag) ([]byte, error) {
	f, err := fs.Open(name, flag)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	if len(buf) == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}
