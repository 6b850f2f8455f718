package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Crash recovery for frame containers. A power cut mid-append leaves a
// container whose frame chain is intact up to some byte and torn after
// it: a frame header cut short, a header whose declared payload overruns
// the file, or plain garbage where a frame should start. The strict
// scanner refuses such a file outright, which loses every intact frame
// before the tear; ScanPrefix and Salvage instead recover the longest
// intact frame prefix — the recovery contract of a log-structured
// format, where a torn tail must only ever shorten the log.
//
// Salvage never reorders or drops interior frames: the result is always
// a byte prefix of the container, so the sequence numbers that resolve
// overlapping extents keep their meaning and a stale frame can never
// sort above a newer one that survived.

// FrameInfo locates one frame inside a container: its parsed header plus
// the container offset of the header's first byte.
type FrameInfo struct {
	Header Header
	Pos    int64
}

// End returns the container offset just past the frame's payload.
func (f FrameInfo) End() int64 {
	return f.Pos + HeaderSize + int64(f.Header.EncLen)
}

// SalvageReport describes what Salvage recovered and what it gave up.
type SalvageReport struct {
	// FramesKept is the number of frames in the intact prefix.
	FramesKept int
	// FramesDropped counts frames found past the tear that still parse
	// (a best-effort resync count; the prefix rule drops them because
	// the bytes between are not trustworthy).
	FramesDropped int
	// IntactBytes is the length of the longest intact frame prefix.
	IntactBytes int64
	// TruncatedBytes is the container bytes past the intact prefix.
	TruncatedBytes int64
	// FirstHeaderValid reports that the container's first header parses
	// even when no complete frame survived — the signature of a brand-new
	// container torn inside its very first frame, as opposed to a plain
	// file that merely begins with the magic bytes.
	FirstHeaderValid bool
	// ChecksumVerified counts kept frames whose payload CRC32-C matched
	// its v2 header; ChecksumSkipped counts kept frames that carried no
	// checksum (v1 headers and zero-extent frames, which have no payload
	// to verify).
	ChecksumVerified int
	ChecksumSkipped  int
	// ChecksumFailures counts frames whose payload decoded to the
	// declared length but failed its CRC32-C — proven bit rot, as opposed
	// to a structural tear. The prefix rule stops the scan there, so any
	// intact frames past the failure are given up and show in
	// FramesDropped rather than vanishing silently.
	ChecksumFailures int
	// Reason says why the scan stopped before the end ("" when clean).
	Reason string
}

// Clean reports whether the whole container parsed (nothing truncated).
func (r SalvageReport) Clean() bool { return r.TruncatedBytes == 0 }

// Format renders the report as a one-line summary.
func (r SalvageReport) Format() string {
	if r.Clean() {
		return fmt.Sprintf("salvage: clean container, %d frames", r.FramesKept)
	}
	s := fmt.Sprintf("salvage: kept %d frames (%d bytes), truncated %d bytes (~%d frames lost)",
		r.FramesKept, r.IntactBytes, r.TruncatedBytes, r.FramesDropped)
	if r.ChecksumFailures > 0 {
		s += fmt.Sprintf(", %d checksum failures", r.ChecksumFailures)
	}
	return s + ": " + r.Reason
}

// maxResync bounds how much torn tail Salvage inspects when counting
// dropped frames; past it FramesDropped is a lower bound. The count is
// reporting only, so a pathological multi-gigabyte tail must not turn
// recovery into a full-file read.
const maxResync = 8 << 20

// ScanPrefix walks the frame chain of a container from offset 0 and
// returns the longest intact prefix: every frame whose header parses and
// whose payload lies entirely inside size. intact is the container
// offset just past the last intact frame. stopErr is nil when the whole
// container parsed; it wraps ErrCorrupt or ErrNotFramed when the chain
// is torn at intact, and is the backend's own error when a read inside
// the supposedly-present bytes failed (callers must not truncate on
// that — the bytes may be fine and the backend transiently unreadable).
//
// ScanPrefix reads only the 32-byte headers, seeking over payloads, so
// indexing a multi-gigabyte checkpoint costs one small read per frame.
// It does not verify payload contents; Salvage does.
func ScanPrefix(r io.ReaderAt, size int64) (frames []FrameInfo, intact int64, stopErr error) {
	frames, intact, _, _, stopErr = scanPrefix(r, size, false)
	return frames, intact, stopErr
}

func scanPrefix(r io.ReaderAt, size int64, verify bool) (frames []FrameInfo, intact int64, verified, skipped int, stopErr error) {
	hdr := make([]byte, HeaderSize)
	var payload, raw []byte // reused across frames
	fail := func(off int64, err error) ([]FrameInfo, int64, int, int, error) {
		return frames, off, verified, skipped, err
	}
	for off := int64(0); off < size; {
		if size-off < HeaderSize {
			return fail(off, fmt.Errorf("%w: torn header at %d (%d trailing bytes)",
				ErrCorrupt, off, size-off))
		}
		if _, err := r.ReadAt(hdr, off); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// The file is shorter than size claimed: a torn tail.
				return fail(off, fmt.Errorf("%w: short header read at %d: %v", ErrCorrupt, off, err))
			}
			return fail(off, fmt.Errorf("codec: frame header at %d: %w", off, err))
		}
		h, err := ParseHeader(hdr)
		if err != nil {
			return fail(off, fmt.Errorf("frame at %d: %w", off, err))
		}
		next := off + HeaderSize + int64(h.EncLen)
		if next > size {
			return fail(off, fmt.Errorf("%w: frame at %d overruns container (%d > %d)",
				ErrCorrupt, off, next, size))
		}
		if verify && h.RawLen > 0 {
			// Recovery-path integrity check: the payload must decode to
			// exactly RawLen bytes and, for v2 frames, match its CRC32-C.
			// Zero-extent frames (pads stamped over failed writes,
			// extension markers) carry no decodable payload and are
			// validated by their bounds alone.
			if int64(cap(payload)) < int64(h.EncLen) {
				payload = make([]byte, h.EncLen)
			}
			payload = payload[:h.EncLen]
			if _, err := r.ReadAt(payload, off+HeaderSize); err != nil && !errors.Is(err, io.EOF) {
				return fail(off, fmt.Errorf("codec: frame payload at %d: %w", off, err))
			}
			if raw, err = DecodeFrame(h, payload, raw[:0]); err != nil {
				if errors.Is(err, ErrCorrupt) {
					// Preserves ErrChecksum identity: a CRC mismatch must
					// stay distinguishable from a structural tear.
					return fail(off, fmt.Errorf("frame at %d: payload does not verify: %w", off, err))
				}
				// Otherwise classed as corruption, whatever the decoder
				// said (an unknown codec ID wraps nothing): an undecodable
				// payload behind a parseable header is the torn-tail
				// shape, not a backend failure.
				return fail(off, fmt.Errorf("%w: frame at %d: payload does not decode: %v", ErrCorrupt, off, err))
			}
			if h.Version >= Version2 {
				verified++
			} else {
				skipped++
			}
		} else if verify {
			skipped++
		}
		frames = append(frames, FrameInfo{Header: h, Pos: off})
		off = next
	}
	return frames, size, verified, skipped, nil
}

// Salvage recovers the longest intact frame prefix of a possibly-torn
// container, verifying that every kept payload decodes, and reports what
// was kept and what was truncated. The returned error is non-nil only
// when the backend itself failed to produce bytes it claims to have —
// never for a torn or garbage tail, which is the condition Salvage
// exists to absorb.
func Salvage(r io.ReaderAt, size int64) ([]FrameInfo, SalvageReport, error) {
	frames, intact, verified, skipped, stopErr := scanPrefix(r, size, true)
	rep := SalvageReport{
		FramesKept:       len(frames),
		IntactBytes:      intact,
		TruncatedBytes:   size - intact,
		ChecksumVerified: verified,
		ChecksumSkipped:  skipped,
	}
	if stopErr != nil {
		if !errors.Is(stopErr, ErrCorrupt) && !errors.Is(stopErr, ErrNotFramed) {
			return nil, SalvageReport{}, stopErr
		}
		if errors.Is(stopErr, ErrChecksum) {
			rep.ChecksumFailures++
		}
		rep.Reason = stopErr.Error()
	}
	if size >= HeaderSize {
		hdr := make([]byte, HeaderSize)
		if _, err := r.ReadAt(hdr, 0); err == nil {
			if _, err := ParseHeader(hdr); err == nil {
				rep.FirstHeaderValid = true
			}
		}
	}
	if rep.TruncatedBytes > 0 {
		rep.FramesDropped = countResync(r, intact, size)
	}
	return frames, rep, nil
}

// countResync scans the torn tail for bytes that still parse as frames —
// intact work the prefix rule had to give up — purely for reporting.
func countResync(r io.ReaderAt, from, size int64) int {
	n := size - from
	if n > maxResync {
		n = maxResync
	}
	tail := make([]byte, n)
	m, err := r.ReadAt(tail, from)
	if err != nil && !errors.Is(err, io.EOF) {
		return 0
	}
	tail = tail[:m]
	dropped := 0
	for i := 0; ; {
		j := bytes.Index(tail[i:], Magic[:])
		if j < 0 {
			break
		}
		k := i + j
		if len(tail)-k < HeaderSize {
			break
		}
		h, err := ParseHeader(tail[k : k+HeaderSize])
		if err != nil {
			i = k + len(Magic)
			continue
		}
		end := k + HeaderSize + int(h.EncLen)
		if end > len(tail) {
			// The final torn frame itself: never durable, not counted.
			break
		}
		dropped++
		i = end
	}
	return dropped
}
