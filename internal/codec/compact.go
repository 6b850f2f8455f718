package codec

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// Container liveness and compaction. Frame containers are log-structured
// and last-writer-wins: an overwrite appends a new frame and the
// superseded extent stays on disk forever, so a rewrite-heavy checkpoint
// stream (in-place incremental checkpointing) suffers unbounded space
// amplification. Analyze derives the per-container live/dead frame sets
// from the same FrameInfo replay ScanPrefix produces, and
// CompactContainer rewrites the minimal equivalent container: the live
// frames, payload-verbatim, renumbered into a dense sequence.
//
// Equivalence contract: a read of any byte through the compacted
// container returns exactly what the original container served. The
// per-byte winner — the highest-sequence data frame covering the byte —
// is preserved because only frames owning no byte at all are dropped and
// the relative order of the survivors' sequence numbers is unchanged by
// the dense renumbering. The logical size is preserved too: it is the
// maximum frame end over *all* frames (including zero-extent markers and
// pads), so when the live data frames stop short of it the compacted
// container carries one zero-extent marker frame at the logical end.

// Liveness is the per-container live/dead frame accounting.
type Liveness struct {
	// Live holds the frames a read can still observe — every data frame
	// that is the last writer of at least one byte, plus at most one
	// zero-extent marker frame needed to preserve the logical size — in
	// sequence order.
	Live []FrameInfo
	// Dead holds the rest: data frames fully shadowed by later writes,
	// pad frames stamped over failed chunk writes, and superseded
	// extension markers, in sequence order.
	Dead []FrameInfo
	// LiveBytes and DeadBytes are the container footprints (header plus
	// stored payload) of the two sets.
	LiveBytes, DeadBytes int64
	// Logical is the logical file size the frame set encodes (the
	// maximum frame end, matching the open-time index computation).
	Logical int64
	// NeedMarker reports that no existing frame can carry the logical
	// size once the dead frames are dropped (it came from a pad or a
	// shadowed marker); CompactContainer synthesizes a fresh zero-extent
	// marker at Logical in that case.
	NeedMarker bool
}

// DeadRatio returns the fraction of the accounted container bytes that
// compaction would reclaim. 0 means the container is already minimal.
func (l Liveness) DeadRatio() float64 {
	if l.LiveBytes+l.DeadBytes == 0 {
		return 0
	}
	return float64(l.DeadBytes) / float64(l.LiveBytes+l.DeadBytes)
}

// ivSet is a sorted, disjoint, merged interval set over logical offsets,
// the coverage structure of the reverse-sequence liveness sweep.
type ivSet struct {
	iv [][2]int64
}

// covered reports whether [lo, hi) is fully contained in the set.
func (s *ivSet) covered(lo, hi int64) bool {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i][1] > lo })
	return i < len(s.iv) && s.iv[i][0] <= lo && hi <= s.iv[i][1]
}

// add merges [lo, hi) into the set.
func (s *ivSet) add(lo, hi int64) {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i][1] >= lo })
	j := i
	for j < len(s.iv) && s.iv[j][0] <= hi {
		if s.iv[j][0] < lo {
			lo = s.iv[j][0]
		}
		if s.iv[j][1] > hi {
			hi = s.iv[j][1]
		}
		j++
	}
	s.iv = append(s.iv[:i], append([][2]int64{{lo, hi}}, s.iv[j:]...)...)
}

// frameFootprint is a frame's container cost: header plus stored payload.
func frameFootprint(fr FrameInfo) int64 {
	return HeaderSize + int64(fr.Header.EncLen)
}

// Analyze classifies a container's frames into live and dead sets. The
// sweep walks data frames in descending sequence order, keeping a frame
// iff some byte of its extent is not covered by higher-sequence frames —
// exactly the set of frames last-writer-wins replay can still observe.
func Analyze(frames []FrameInfo) Liveness {
	var lv Liveness
	for _, fr := range frames {
		if end := fr.Header.Off + int64(fr.Header.RawLen); end > lv.Logical {
			lv.Logical = end
		}
	}
	data := make([]FrameInfo, 0, len(frames))
	for _, fr := range frames {
		if fr.Header.RawLen > 0 {
			data = append(data, fr)
		}
	}
	sort.Slice(data, func(i, j int) bool { return data[i].Header.Seq > data[j].Header.Seq })
	var cov ivSet
	var liveDataEnd int64
	for _, fr := range data {
		lo := fr.Header.Off
		hi := lo + int64(fr.Header.RawLen)
		if cov.covered(lo, hi) {
			lv.Dead = append(lv.Dead, fr)
			continue
		}
		cov.add(lo, hi)
		lv.Live = append(lv.Live, fr)
		if hi > liveDataEnd {
			liveDataEnd = hi
		}
	}
	// Zero-extent frames never serve bytes; at most one — the marker that
	// carries the logical size past the live data — survives compaction.
	markerIdx := -1
	var marker FrameInfo
	if lv.Logical > liveDataEnd {
		for i, fr := range frames {
			if fr.Header.RawLen != 0 || fr.Header.EncLen != 0 || fr.Header.Off != lv.Logical {
				continue
			}
			if markerIdx < 0 || fr.Header.Seq > marker.Header.Seq {
				markerIdx, marker = i, fr
			}
		}
		if markerIdx >= 0 {
			lv.Live = append(lv.Live, marker)
		} else {
			// The logical maximum comes from a pad (or a frame compaction
			// drops); a fresh marker must be synthesized to preserve it.
			lv.NeedMarker = true
		}
	}
	for _, fr := range frames {
		if fr.Header.RawLen != 0 {
			continue // data frames were classified by the sweep
		}
		if markerIdx >= 0 && fr.Pos == marker.Pos && fr.Header.Seq == marker.Header.Seq {
			continue // the surviving marker
		}
		lv.Dead = append(lv.Dead, fr)
	}
	sort.Slice(lv.Live, func(i, j int) bool { return lv.Live[i].Header.Seq < lv.Live[j].Header.Seq })
	sort.Slice(lv.Dead, func(i, j int) bool { return lv.Dead[i].Header.Seq < lv.Dead[j].Header.Seq })
	for _, fr := range lv.Live {
		lv.LiveBytes += frameFootprint(fr)
	}
	for _, fr := range lv.Dead {
		lv.DeadBytes += frameFootprint(fr)
	}
	return lv
}

// CompactStats describes one container rewrite.
type CompactStats struct {
	FramesIn         int   // frames in the input index
	FramesLive       int   // input frames kept
	FramesDropped    int   // input frames dropped as dead
	FramesOut        int   // frames in the output (kept + synthesized marker)
	ChecksumVerified int   // input payloads whose CRC32-C re-verified during the copy
	LiveBytes        int64 // input footprint of the kept frames
	DeadBytes        int64 // input footprint of the dropped frames
	BytesOut         int64 // size of the compacted container
	Logical          int64 // logical size, preserved exactly
}

// CompactContainer appends the minimal equivalent container to dst: the
// live frames of the index, payloads copied verbatim through r, sequence
// numbers renumbered densely from zero (relative order preserved), plus a
// synthesized zero-extent marker when the logical size would otherwise be
// lost. Every copied payload is decode-verified first — a container that
// fails verification (including a checksum mismatch) is never rewritten
// (that is scrub's condition to report, not compaction's to destroy).
// Returns the extended slice, the compacted container's frame index, and
// the rewrite statistics.
//
// CompactContainer is idempotent: compacting a compacted container finds
// every frame live and reproduces it byte-identically.
func CompactContainer(r io.ReaderAt, frames []FrameInfo, dst []byte) ([]byte, []FrameInfo, CompactStats, error) {
	lv := Analyze(frames)
	st := CompactStats{
		FramesIn:      len(frames),
		FramesLive:    len(lv.Live),
		FramesDropped: len(lv.Dead),
		LiveBytes:     lv.LiveBytes,
		DeadBytes:     lv.DeadBytes,
		Logical:       lv.Logical,
	}
	base := len(dst)
	index := make([]FrameInfo, 0, len(lv.Live)+1)
	hdr := make([]byte, HeaderSize)
	var payload, raw []byte // reused across frames: the pass allocates O(largest frame)
	var seq uint64
	for _, fr := range lv.Live {
		h := fr.Header
		h.Seq = seq
		seq++
		if int64(cap(payload)) < int64(h.EncLen) {
			payload = make([]byte, h.EncLen)
		}
		payload = payload[:h.EncLen]
		if h.EncLen > 0 {
			n, err := r.ReadAt(payload, fr.Pos+HeaderSize)
			if n != len(payload) {
				if err == nil || errors.Is(err, io.EOF) {
					err = ErrCorrupt
				}
				return dst[:base], nil, CompactStats{}, fmt.Errorf("codec: compact: frame payload at %d: %w", fr.Pos, err)
			}
		}
		if h.RawLen > 0 {
			var err error
			if raw, err = DecodeFrame(h, payload, raw[:0]); err != nil {
				return dst[:base], nil, CompactStats{}, fmt.Errorf("codec: compact: frame at %d: %w", fr.Pos, err)
			}
			st.ChecksumVerified++
		}
		pos := int64(len(dst) - base)
		PutHeader(hdr, h)
		dst = append(dst, hdr...)
		dst = append(dst, payload...)
		index = append(index, FrameInfo{Header: h, Pos: pos})
	}
	if lv.NeedMarker {
		h := Header{Codec: RawID, Seq: seq, Off: lv.Logical}
		pos := int64(len(dst) - base)
		PutHeader(hdr, h)
		dst = append(dst, hdr...)
		index = append(index, FrameInfo{Header: h, Pos: pos})
	}
	st.FramesOut = len(index)
	st.BytesOut = int64(len(dst) - base)
	return dst, index, st, nil
}
