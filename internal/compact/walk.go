// Package compact is CRFS's container-maintenance subsystem: two engines
// — a compactor that rewrites log-structured frame containers to their
// minimal equivalent (reclaiming the dead bytes rewrite-heavy checkpoint
// workloads accumulate) and a scrub that re-verifies every frame of every
// container, fanned out across workers pFSCK-style — sharing one
// container-walk core.
//
// The engines in this package operate on a backing directory exposed as
// a vfs.FS (the crfsck command). The compactor is offline only. The
// scrub also runs over a live mount: core.FS.Scrub verifies open files
// from their in-memory index with VerifyFrames and closed ones with
// ScrubFile, on a Pool of its own for the pass.
//
// Compaction replaces containers crash-safely: the compacted image is
// written to a temporary sibling (TempSuffix), synced, and renamed over
// the original — a power cut leaves either the old container or the new
// one, never a mix. Stray temporaries from a cut mid-write are inert (the
// walk skips them) and are removed by SweepTemps.
package compact

import (
	"crfs/internal/codec"
	"crfs/internal/vfs"
	"strings"
)

// TempSuffix names the temporary sibling a compaction rewrite stages its
// output in before the atomic rename. Files with this suffix are skipped
// by Walk and removed by SweepTemps.
const TempSuffix = ".crfs-compact~"

// Walk calls fn for every frame container under root: every regular file
// at least one frame header long whose first bytes match the container
// magic. Compaction temporaries are skipped. fn returning an error stops
// the walk.
func Walk(fsys vfs.FS, root string, fn func(path string, size int64) error) error {
	if root == "" {
		root = "."
	}
	entries, err := fsys.ReadDir(root)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		path := ent.Name
		if root != "." {
			path = root + "/" + ent.Name
		}
		if ent.IsDir {
			if err := Walk(fsys, path, fn); err != nil {
				return err
			}
			continue
		}
		if strings.HasSuffix(ent.Name, TempSuffix) {
			continue
		}
		info, err := fsys.Stat(path)
		if err != nil || info.IsDir || info.Size < codec.HeaderSize {
			continue
		}
		sniffed, err := sniff(fsys, path)
		if err != nil || !sniffed {
			continue
		}
		if err := fn(path, info.Size); err != nil {
			return err
		}
	}
	return nil
}

// sniff reports whether the file's first bytes match the frame magic.
func sniff(fsys vfs.FS, path string) (bool, error) {
	f, err := fsys.Open(path, vfs.ReadOnly)
	if err != nil {
		return false, err
	}
	defer f.Close()
	hdr := make([]byte, codec.HeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return false, err
	}
	return codec.Sniff(hdr), nil
}

// SweepTemps removes stray compaction temporaries under root — the inert
// leftovers of a crash between a rewrite's temp write and its rename —
// and returns how many were removed.
func SweepTemps(fsys vfs.FS, root string) (int, error) {
	if root == "" {
		root = "."
	}
	entries, err := fsys.ReadDir(root)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, ent := range entries {
		path := ent.Name
		if root != "." {
			path = root + "/" + ent.Name
		}
		if ent.IsDir {
			n, err := SweepTemps(fsys, path)
			removed += n
			if err != nil {
				return removed, err
			}
			continue
		}
		if strings.HasSuffix(ent.Name, TempSuffix) {
			if err := fsys.Remove(path); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}
