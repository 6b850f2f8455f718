// Package compact is CRFS's container-maintenance subsystem: two engines
// — a compactor that rewrites log-structured frame containers to their
// minimal equivalent (reclaiming the dead bytes rewrite-heavy checkpoint
// workloads accumulate) and a scrub that re-verifies every frame of every
// container, fanned out across workers pFSCK-style — sharing one
// container-walk core.
//
// The engines in this package operate on a backing directory exposed as
// a vfs.FS: the crfsck command runs them offline, and crfsd's SCRUB runs
// Scrub over its mount's backend. Neither goes through a mount, so
// neither sees an open file's in-memory state; the walk skips temps, so
// what crfsd scrubs is committed and never appended to.
//
// Compaction replaces containers through vfs.Replace, the one crash-safe
// replace in the tree: a power cut leaves either the old container or the
// new one, never a mix. A temp stranded by a cut mid-write is inert (the
// walk skips every vfs.IsTemp name) and CompactDir's vfs.SweepTemps
// removes it.
package compact

import (
	"crfs/internal/codec"
	"crfs/internal/vfs"
)

// Walk calls fn for every frame container under root: every regular file
// at least one frame header long whose first bytes match the container
// magic. Temps (vfs.IsTemp) are skipped. fn returning an error stops
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
		if vfs.IsTemp(ent.Name) {
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
