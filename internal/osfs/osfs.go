// Package osfs adapts a directory of the host operating system's
// filesystem to the vfs.FS interface.
//
// This is what makes the CRFS library genuinely usable outside the
// simulator: mounting internal/core over an osfs root gives a real
// write-aggregating filesystem layer on top of whatever the host directory
// lives on (the role ext3/NFS/Lustre play in the paper).
package osfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"crfs/internal/vfs"
)

// FS exposes the subtree rooted at a host directory as a vfs.FS.
type FS struct {
	root string
}

// New returns an FS rooted at dir, which must exist.
func New(dir string) (*FS, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("osfs: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("osfs: %s: %w", dir, vfs.ErrNotDir)
	}
	return &FS{root: dir}, nil
}

// Root returns the host directory backing the filesystem.
func (o *FS) Root() string { return o.root }

// hostPath maps a vfs name to a host path. vfs.Clean anchors names at the
// filesystem root, so ".." segments cannot escape o.root.
func (o *FS) hostPath(name string) string {
	clean := vfs.Clean(name)
	if clean == "." {
		return o.root
	}
	return filepath.Join(o.root, filepath.FromSlash(clean))
}

func osFlag(flag vfs.OpenFlag) int {
	var f int
	switch flag.AccessMode() {
	case vfs.WriteOnly:
		f = os.O_WRONLY
	case vfs.ReadWrite:
		f = os.O_RDWR
	default:
		f = os.O_RDONLY
	}
	if flag&vfs.Create != 0 {
		f |= os.O_CREATE
	}
	if flag&vfs.Excl != 0 {
		f |= os.O_EXCL
	}
	if flag&vfs.Trunc != 0 {
		f |= os.O_TRUNC
	}
	return f
}

// Open implements vfs.FS.
func (o *FS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	f, err := os.OpenFile(o.hostPath(name), osFlag(flag), 0o644)
	if err != nil {
		return nil, err
	}
	return &file{f: f, name: vfs.Clean(name), flag: flag}, nil
}

// Mkdir implements vfs.FS.
func (o *FS) Mkdir(name string) error {
	return os.Mkdir(o.hostPath(name), 0o755)
}

// MkdirAll implements vfs.FS.
func (o *FS) MkdirAll(name string) error {
	return os.MkdirAll(o.hostPath(name), 0o755)
}

// Remove implements vfs.FS.
func (o *FS) Remove(name string) error {
	return os.Remove(o.hostPath(name))
}

// Rename implements vfs.FS.
func (o *FS) Rename(oldName, newName string) error {
	return os.Rename(o.hostPath(oldName), o.hostPath(newName))
}

// Stat implements vfs.FS.
func (o *FS) Stat(name string) (vfs.FileInfo, error) {
	info, err := os.Stat(o.hostPath(name))
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return toInfo(info), nil
}

// ReadDir implements vfs.FS; os.ReadDir already sorts by name.
func (o *FS) ReadDir(name string) ([]vfs.DirEntry, error) {
	ents, err := os.ReadDir(o.hostPath(name))
	if err != nil {
		return nil, err
	}
	out := make([]vfs.DirEntry, len(ents))
	for i, e := range ents {
		out[i] = vfs.DirEntry{Name: e.Name(), IsDir: e.IsDir()}
	}
	return out, nil
}

// Truncate implements vfs.FS.
func (o *FS) Truncate(name string, size int64) error {
	return os.Truncate(o.hostPath(name), size)
}

// SyncDir implements vfs.FS: it fsyncs the directory, making the
// entries created, renamed or removed in it durable.
func (o *FS) SyncDir(name string) error {
	d, err := os.Open(o.hostPath(name))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func toInfo(info fs.FileInfo) vfs.FileInfo {
	return vfs.FileInfo{
		Name:    info.Name(),
		Size:    info.Size(),
		Mode:    info.Mode(),
		ModTime: info.ModTime(),
		IsDir:   info.IsDir(),
	}
}

type file struct {
	f    *os.File
	name string
	flag vfs.OpenFlag
}

func (f *file) Name() string { return f.name }

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if !f.flag.Readable() {
		return 0, fmt.Errorf("osfs: read %s: %w", f.name, vfs.ErrReadOnly)
	}
	return f.f.ReadAt(p, off)
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if !f.flag.Writable() {
		return 0, fmt.Errorf("osfs: write %s: %w", f.name, vfs.ErrReadOnly)
	}
	return f.f.WriteAt(p, off)
}

func (f *file) Truncate(size int64) error { return f.f.Truncate(size) }
func (f *file) Sync() error               { return f.f.Sync() }
func (f *file) Close() error {
	err := f.f.Close()
	if errors.Is(err, fs.ErrClosed) {
		return fmt.Errorf("osfs: close %s: %w", f.name, vfs.ErrClosed)
	}
	return err
}

func (f *file) Stat() (vfs.FileInfo, error) {
	info, err := f.f.Stat()
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return toInfo(info), nil
}

var _ vfs.FS = (*FS)(nil)
