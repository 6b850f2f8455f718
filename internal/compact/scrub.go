package compact

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"crfs/internal/codec"
	"crfs/internal/vfs"
)

// The scrub engine. Open-time salvage (PR 4) verifies a container once,
// when it is opened; nothing in the tree re-verifies integrity after
// that, so bit rot in a cold checkpoint store goes unnoticed until the
// restart that needs the bytes. Scrub walks every container, scans its
// frame chain, and re-verifies every payload — reading and decoding each
// frame is an independent unit of work, so verification fans out across
// workers the way pFSCK parallelizes fsck across independent block
// groups.

// ScrubOptions configures a scrub pass.
type ScrubOptions struct {
	// Workers is the number of parallel frame verifiers (minimum 1).
	Workers int
	// Repair truncates a damaged container to its longest verified frame
	// prefix — the same prefix rule open-time salvage applies, applied
	// in place: a torn tail or a corrupt frame and everything after it
	// are cut off.
	Repair bool
}

// FileReport describes one scrubbed container.
type FileReport struct {
	Path string
	// Frames and Bytes count the frames and payload bytes that verified.
	Frames int
	Bytes  int64
	// CorruptFrames counts frames whose payload failed verification
	// behind a parseable header (bit rot, torn reserved ranges).
	CorruptFrames int
	// ChecksumFailures counts the subset of CorruptFrames whose payload
	// decoded to the declared length but failed its v2 CRC32-C — proven
	// bit rot that v1's decode-based verification would have passed.
	ChecksumFailures int
	// ChecksumVerified and ChecksumSkipped split the verified frames into
	// those proven by a v2 payload checksum and those that carried none
	// (v1 frames and zero-extent markers).
	ChecksumVerified int
	ChecksumSkipped  int
	// FramesDiscarded counts frames that verified intact but sat past the
	// repair truncation point: the prefix rule gave them up because an
	// earlier frame was corrupt. Nonzero only when Repaired.
	FramesDiscarded int
	// TornBytes is the container tail past the longest parseable frame
	// chain (a crash mid-append never repaired).
	TornBytes int64
	// Repaired reports the container was truncated to its verified
	// prefix.
	Repaired bool
	// Err is a backend failure that prevented scrubbing the file.
	Err string
}

// Record enters one VerifyFrames pass over the container's frames into
// the report. Backend failures make the file unverifiable (Err), not
// corrupt: the bytes may be fine and the backend transiently sick, so
// nothing is ever repaired on them.
func (f *FileReport) Record(res VerifyResult) {
	f.Frames = res.Verified
	f.Bytes = res.Bytes
	f.CorruptFrames = res.Corrupt
	f.ChecksumFailures = res.ChecksumFailed
	f.ChecksumVerified = res.ChecksumVerified
	f.ChecksumSkipped = res.ChecksumSkipped
	if res.Failed > 0 {
		f.Err = res.Err
	}
}

// Damaged reports whether the container has any defect.
func (f FileReport) Damaged() bool {
	return f.CorruptFrames > 0 || f.TornBytes > 0 || f.Err != ""
}

// Report aggregates one scrub pass.
type Report struct {
	Containers       int
	Frames           int64 // frames verified intact
	Bytes            int64 // payload bytes verified
	CorruptFrames    int64
	ChecksumFailures int64 // corrupt frames proven by a v2 CRC mismatch
	ChecksumVerified int64 // verified frames proven by their v2 checksum
	ChecksumSkipped  int64 // verified frames that carried no checksum (v1, markers)
	FramesDiscarded  int64 // intact frames given up by prefix repairs
	TornContainers   int
	TornBytes        int64
	Repaired         int
	// Problems lists the containers with defects (capped at 100).
	Problems []FileReport
}

// Clean reports whether every container verified without defect.
func (r *Report) Clean() bool {
	return r.CorruptFrames == 0 && r.TornContainers == 0 && len(r.Problems) == 0
}

// Add folds one file's report into the totals.
func (r *Report) Add(f FileReport) {
	r.Containers++
	r.Frames += int64(f.Frames)
	r.Bytes += f.Bytes
	r.CorruptFrames += int64(f.CorruptFrames)
	r.ChecksumFailures += int64(f.ChecksumFailures)
	r.ChecksumVerified += int64(f.ChecksumVerified)
	r.ChecksumSkipped += int64(f.ChecksumSkipped)
	r.FramesDiscarded += int64(f.FramesDiscarded)
	if f.TornBytes > 0 {
		r.TornContainers++
		r.TornBytes += f.TornBytes
	}
	if f.Repaired {
		r.Repaired++
	}
	if f.Damaged() && len(r.Problems) < 100 {
		r.Problems = append(r.Problems, f)
	}
}

// Format renders the report as a short multi-line summary.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: containers=%d frames-verified=%d bytes=%d corrupt-frames=%d checksum-failures=%d checksum-verified=%d checksum-skipped=%d torn=%d (%d bytes) repaired=%d discarded-frames=%d\n",
		r.Containers, r.Frames, r.Bytes, r.CorruptFrames, r.ChecksumFailures,
		r.ChecksumVerified, r.ChecksumSkipped, r.TornContainers, r.TornBytes,
		r.Repaired, r.FramesDiscarded)
	for _, f := range r.Problems {
		fmt.Fprintf(&b, "  %s: frames=%d corrupt=%d checksum-failures=%d torn-bytes=%d repaired=%v discarded=%d%s\n",
			f.Path, f.Frames, f.CorruptFrames, f.ChecksumFailures, f.TornBytes, f.Repaired, f.FramesDiscarded,
			map[bool]string{true: " err=" + f.Err, false: ""}[f.Err != ""])
	}
	return b.String()
}

// frameScratch is the payload and decode buffer one verification unit
// works in. A pass recycles them through a free list of its own, so
// scrubbing a container allocates O(workers × largest frame), not a
// buffer per frame.
type frameScratch struct{ payload, raw []byte }

// verifyFrame reads one frame's payload through r and proves it decodes
// to exactly the length its header declares — and, for v2 frames, that
// the decoded bytes match the header's CRC32-C. The returned error wraps
// codec.ErrCorrupt for payload damage (codec.ErrChecksum for the CRC
// case specifically) and is the backend's own error when the bytes could
// not be read at all.
func verifyFrame(r io.ReaderAt, fr codec.FrameInfo, sc *frameScratch) error {
	if fr.Header.RawLen == 0 {
		return nil // pads and markers carry no decodable payload
	}
	if cap(sc.payload) < int(fr.Header.EncLen) {
		sc.payload = make([]byte, fr.Header.EncLen)
	}
	payload := sc.payload[:fr.Header.EncLen]
	n, err := r.ReadAt(payload, fr.Pos+codec.HeaderSize)
	if n != len(payload) {
		if err == nil || errors.Is(err, io.EOF) {
			err = codec.ErrCorrupt
		}
		return fmt.Errorf("frame payload at %d: %w", fr.Pos, err)
	}
	if sc.raw, err = codec.DecodeFrame(fr.Header, payload, sc.raw[:0]); err != nil {
		if !errors.Is(err, codec.ErrCorrupt) {
			err = fmt.Errorf("%w: %v", codec.ErrCorrupt, err)
		}
		return fmt.Errorf("frame at %d: %w", fr.Pos, err)
	}
	return nil
}

// Submit schedules one independent verification unit, possibly
// concurrently with others; implementations must eventually run every
// submitted unit. nil means run inline (serial verification).
type Submit func(func())

// Pool is the worker pool of one scrub pass, offline (Scrub) or over a
// live mount (core.FS.Scrub): a fixed set of goroutines draining a job
// channel.
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

// NewPool starts workers goroutines (minimum 1); Close stops them.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{jobs: make(chan func())}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				j()
			}
		}()
	}
	return p
}

// Submit hands j to a worker, blocking until one takes it.
func (p *Pool) Submit(j func()) { p.jobs <- j }

// Close waits for every submitted unit and stops the workers.
func (p *Pool) Close() {
	close(p.jobs)
	p.wg.Wait()
}

// VerifyResult is one VerifyFrames pass's outcome. Corruption (payload
// proven not to match its header) and backend failure (the bytes could
// not be read at all) are kept apart: only proven corruption may ever
// feed the repair rule — truncating on a transient read error would
// turn a flaky backend into permanent data loss.
type VerifyResult struct {
	Verified         int   // frames whose payload verified intact
	Bytes            int64 // payload bytes covered by the verified frames
	Corrupt          int   // frames proven corrupt (undecodable payload or CRC mismatch)
	ChecksumFailed   int   // corrupt frames proven by a v2 CRC mismatch specifically
	ChecksumVerified int   // intact frames proven by their v2 payload checksum
	ChecksumSkipped  int   // intact frames carrying no checksum (v1, zero-extent)
	FirstCorrupt     int64 // container offset of the first corrupt frame, -1 when none
	Failed           int   // frames unverifiable because the backend failed to read
	Err              string
	// Intact records the per-frame verdict, indexed like the input slice:
	// true iff that frame verified. Callers applying the prefix repair
	// rule use it to count intact frames the truncation gives up.
	Intact []bool
}

// VerifyFrames fans frame verification out through submit. Verification
// is read-only and order-independent; the first-corruption position is
// what the prefix repair rule needs.
func VerifyFrames(r io.ReaderAt, frames []codec.FrameInfo, submit Submit) VerifyResult {
	if submit == nil {
		submit = func(j func()) { j() }
	}
	var ok, badPos, okBytes, failed atomic.Int64
	var sumOK, sumSkip, sumBad atomic.Int64
	badPos.Store(-1)
	var errMu sync.Mutex
	var firstErr string
	var wg sync.WaitGroup
	intact := make([]bool, len(frames))
	scratch := sync.Pool{New: func() any { return new(frameScratch) }} // one per unit running at once
	for i := range frames {
		i, fr := i, frames[i]
		wg.Add(1)
		submit(func() {
			defer wg.Done()
			sc := scratch.Get().(*frameScratch)
			defer scratch.Put(sc)
			switch err := verifyFrame(r, fr, sc); {
			case err == nil:
				ok.Add(1)
				okBytes.Add(int64(fr.Header.RawLen))
				intact[i] = true
				if fr.Header.RawLen > 0 && fr.Header.Version >= codec.Version2 {
					sumOK.Add(1)
				} else {
					sumSkip.Add(1)
				}
			case errors.Is(err, codec.ErrChecksum):
				sumBad.Add(1)
				fallthrough
			case errors.Is(err, codec.ErrCorrupt):
				for {
					cur := badPos.Load()
					if cur >= 0 && cur <= fr.Pos {
						break
					}
					if badPos.CompareAndSwap(cur, fr.Pos) {
						break
					}
				}
			default:
				// Backend failure: the frame is unverifiable, not corrupt.
				failed.Add(1)
				errMu.Lock()
				if firstErr == "" {
					firstErr = err.Error()
				}
				errMu.Unlock()
			}
		})
	}
	wg.Wait()
	res := VerifyResult{
		Verified:         int(ok.Load()),
		Bytes:            okBytes.Load(),
		ChecksumFailed:   int(sumBad.Load()),
		ChecksumVerified: int(sumOK.Load()),
		ChecksumSkipped:  int(sumSkip.Load()),
		FirstCorrupt:     badPos.Load(),
		Failed:           int(failed.Load()),
		Err:              firstErr,
		Intact:           intact,
	}
	res.Corrupt = len(frames) - res.Verified - res.Failed
	return res
}

// Scrub walks every container under root and verifies every frame,
// fanning the per-frame work across o.Workers goroutines. With o.Repair,
// damaged containers are truncated to their longest verified frame
// prefix. The returned error reports walk-level failures only; per-file
// defects and failures are data, collected in the report.
func Scrub(fsys vfs.FS, root string, o ScrubOptions) (*Report, error) {
	p := NewPool(o.Workers)
	defer p.Close()
	rep := &Report{}
	err := Walk(fsys, root, func(path string, size int64) error {
		rep.Add(ScrubFile(fsys, path, size, o.Repair, p.Submit))
		return nil
	})
	return rep, err
}

// ScrubFile verifies one container, fanning per-frame work through
// submit, and with repair truncates it to its verified prefix.
func ScrubFile(fsys vfs.FS, path string, size int64, repair bool, submit Submit) FileReport {
	fr := FileReport{Path: path}
	f, err := fsys.Open(path, vfs.ReadOnly)
	if err != nil {
		fr.Err = err.Error()
		return fr
	}
	defer f.Close()
	frames, intact, stopErr := codec.ScanPrefix(f, size)
	if stopErr != nil {
		if !errors.Is(stopErr, codec.ErrCorrupt) && !errors.Is(stopErr, codec.ErrNotFramed) {
			fr.Err = stopErr.Error() // backend failure, not damage
			return fr
		}
		fr.TornBytes = size - intact
	}
	res := VerifyFrames(f, frames, submit)
	fr.Record(res)
	if !repair || !fr.Damaged() || fr.Err != "" {
		return fr
	}
	// Prefix repair: keep everything up to the first defect. A corrupt
	// frame truncates at its own header; a clean frame set with a torn
	// tail truncates at the end of the chain.
	good := intact
	if res.FirstCorrupt >= 0 && res.FirstCorrupt < good {
		good = res.FirstCorrupt
	}
	if err := fsys.Truncate(path, good); err != nil {
		fr.Err = fmt.Sprintf("repair: %v", err)
		return fr
	}
	fr.Repaired = true
	// Prefix repair on a mid-container defect gives up every intact frame
	// behind it; count them so the loss is visible, never silent.
	for i, info := range frames {
		if info.Pos >= good && res.Intact[i] {
			fr.FramesDiscarded++
		}
	}
	return fr
}
