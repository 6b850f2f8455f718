package compact

import (
	"errors"
	"fmt"
	"strings"

	"crfs/internal/codec"
	"crfs/internal/vfs"
)

// The compaction engine: rewrite each container under a backing
// directory to its minimal equivalent. It is offline — for cold
// checkpoint stores whose files are closed, the crfsck use case — and
// commits each rewrite through vfs.Replace, the crash-safe replace
// crfsd's PUT commits through too; a mount never rewrites a container.

// CompactFileReport describes one container's compaction outcome.
type CompactFileReport struct {
	Path          string
	Compacted     bool
	FramesDropped int
	Reclaimed     int64 // file bytes reclaimed (dead frames + torn junk)
	Err           string
}

// CompactReport aggregates one offline compaction pass.
type CompactReport struct {
	Containers    int
	Compacted     int
	FramesDropped int64
	Reclaimed     int64
	TempsSwept    int
	// Problems lists containers that could not be compacted (capped).
	Problems []CompactFileReport
}

// Format renders the report as a short multi-line summary.
func (r *CompactReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compact: containers=%d compacted=%d frames-dropped=%d reclaimed=%d temps-swept=%d\n",
		r.Containers, r.Compacted, r.FramesDropped, r.Reclaimed, r.TempsSwept)
	for _, f := range r.Problems {
		fmt.Fprintf(&b, "  %s: %s\n", f.Path, f.Err)
	}
	return b.String()
}

// CompactDir sweeps stray temps (vfs.SweepTemps), then walks every
// container under root and rewrites those with anything to reclaim. The
// returned error reports walk-level failures; per-file failures are
// collected in the report.
func CompactDir(fsys vfs.FS, root string) (*CompactReport, error) {
	rep := &CompactReport{}
	swept, err := vfs.SweepTemps(fsys, root)
	rep.TempsSwept = swept
	if err != nil {
		return rep, err
	}
	err = Walk(fsys, root, func(path string, size int64) error {
		fr := CompactPath(fsys, path, size)
		rep.Containers++
		if fr.Compacted {
			rep.Compacted++
			rep.FramesDropped += int64(fr.FramesDropped)
			rep.Reclaimed += fr.Reclaimed
		}
		if fr.Err != "" && len(rep.Problems) < 100 {
			rep.Problems = append(rep.Problems, fr)
		}
		return nil
	})
	return rep, err
}

// CompactPath rewrites one container to its minimal equivalent through
// vfs.Replace, so a power cut leaves the old container or the new one,
// never a mix. A torn container is compacted from its longest intact
// frame prefix — the rewrite repairs the tear as a side effect, exactly
// like open-time salvage followed by repair. A container whose live
// payloads fail verification, or a v1 container, is left untouched.
func CompactPath(fsys vfs.FS, path string, size int64) CompactFileReport {
	rep := CompactFileReport{Path: path}
	f, err := fsys.Open(path, vfs.ReadOnly)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	frames, _, stopErr := codec.ScanPrefix(f, size)
	if stopErr != nil && !errors.Is(stopErr, codec.ErrCorrupt) && !errors.Is(stopErr, codec.ErrNotFramed) {
		f.Close()
		rep.Err = stopErr.Error()
		return rep
	}
	lv := codec.Analyze(frames)
	// Reclaimable = everything the minimal container does not need:
	// dead frames plus any torn junk past the frame chain.
	reclaimable := size - lv.LiveBytes
	if lv.NeedMarker {
		reclaimable -= codec.HeaderSize // the synthesized marker costs one header
	}
	if reclaimable <= 0 {
		f.Close()
		return rep
	}
	box, _, st, err := codec.CompactContainer(f, frames, nil)
	f.Close()
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	err = vfs.Replace(fsys, path, func(tf vfs.File) error {
		if len(box) == 0 {
			return nil
		}
		_, err := tf.WriteAt(box, 0)
		return err
	})
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Compacted = true
	rep.FramesDropped = st.FramesDropped
	rep.Reclaimed = size - st.BytesOut
	return rep
}
