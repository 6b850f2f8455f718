// Package vfs defines the filesystem service-provider interface that every
// CRFS layer speaks: the CRFS aggregation layer itself, the in-memory and
// OS-passthrough backends, and the simulated ext3/NFS/Lustre backends.
//
// The interface is deliberately a small POSIX-flavoured subset: it is the
// set of operations the paper's FUSE filesystem must handle (§IV), namely
// open/create, positional read/write, close, fsync, plus the metadata
// operations CRFS passes straight through (mkdir, rename, stat, ...).
package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Common error values. Backends return these (possibly wrapped) so that
// layers above can classify failures without knowing the backend.
var (
	// ErrNotExist reports that a path does not exist.
	ErrNotExist = fs.ErrNotExist
	// ErrExist reports that a path already exists.
	ErrExist = fs.ErrExist
	// ErrIsDir reports a file operation applied to a directory.
	ErrIsDir = errors.New("is a directory")
	// ErrNotDir reports a directory operation applied to a file.
	ErrNotDir = errors.New("not a directory")
	// ErrClosed reports an operation on a closed file or filesystem.
	ErrClosed = fs.ErrClosed
	// ErrInvalid reports an invalid argument (negative offset, bad name).
	ErrInvalid = fs.ErrInvalid
	// ErrReadOnly reports a write to a file opened read-only.
	ErrReadOnly = errors.New("file not open for writing")
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = errors.New("directory not empty")
)

// OpenFlag selects the access mode and behaviour of Open, mirroring the
// POSIX O_* flags that matter to checkpoint workloads.
type OpenFlag int

// Open flags. ReadOnly is the zero value so that plain reads need no flags.
const (
	ReadOnly  OpenFlag = 0x0
	WriteOnly OpenFlag = 0x1
	ReadWrite OpenFlag = 0x2
	Create    OpenFlag = 0x40
	Excl      OpenFlag = 0x80
	Trunc     OpenFlag = 0x200
	Append    OpenFlag = 0x400
)

// AccessMode extracts the access-mode bits of f.
func (f OpenFlag) AccessMode() OpenFlag { return f & 0x3 }

// Writable reports whether the flag set permits writing.
func (f OpenFlag) Writable() bool {
	m := f.AccessMode()
	return m == WriteOnly || m == ReadWrite
}

// Readable reports whether the flag set permits reading.
func (f OpenFlag) Readable() bool {
	m := f.AccessMode()
	return m == ReadOnly || m == ReadWrite
}

// FileInfo describes a file or directory, a trimmed-down fs.FileInfo.
type FileInfo struct {
	Name    string // base name
	Size    int64  // size in bytes
	Mode    fs.FileMode
	ModTime time.Time
	IsDir   bool
}

// DirEntry is one entry of a directory listing.
type DirEntry struct {
	Name  string
	IsDir bool
}

// File is an open file handle. Read and write are positional (pread/pwrite)
// because checkpoint libraries interleave many handles; callers that need a
// cursor keep it themselves.
type File interface {
	// ReadAt reads len(p) bytes from offset off. It returns the number of
	// bytes read; n < len(p) with a nil error is permitted only at EOF,
	// where io.EOF is returned.
	ReadAt(p []byte, off int64) (n int, err error)
	// WriteAt writes len(p) bytes at offset off, extending the file as
	// needed. Short writes must return a non-nil error.
	WriteAt(p []byte, off int64) (n int, err error)
	// Truncate changes the file size.
	Truncate(size int64) error
	// Sync flushes the file's data to the backend's stable storage.
	Sync() error
	// Close releases the handle. Close on an already-closed file returns
	// ErrClosed.
	Close() error
	// Stat returns metadata for the open file.
	Stat() (FileInfo, error)
	// Name returns the path the file was opened with.
	Name() string
}

// FDReader is a File whose bytes a server can have the kernel copy from
// an operating-system descriptor to a socket (sendfile(2)). ReadFD calls
// send with a descriptor holding [off, off+n) at off as ReadAt would
// return it, keeps it so until send returns, and returns send's error; a
// nil send only asks. It answers false, calling nothing, when the range
// cannot be read so now: ReadAt still serves it. Linux backends only.
type FDReader interface {
	ReadFD(off, n int64, send func(fd uintptr) error) (bool, error)
}

// FS is the filesystem interface CRFS is mounted over and also the
// interface CRFS itself exposes upward ("stackable filesystem", §IV).
type FS interface {
	// Open opens or creates (per flag) the named file.
	Open(name string, flag OpenFlag) (File, error)
	// Mkdir creates a directory.
	Mkdir(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(name string) error
	// Remove removes a file or empty directory.
	Remove(name string) error
	// Rename renames (moves) a file or directory.
	Rename(oldName, newName string) error
	// Stat describes the named path.
	Stat(name string) (FileInfo, error)
	// ReadDir lists a directory in lexical order.
	ReadDir(name string) ([]DirEntry, error)
	// Truncate resizes the named file without opening it.
	Truncate(name string, size int64) error
	// SyncDir flushes the named directory's entries to stable storage,
	// so a file created or renamed into it survives a power cut.
	SyncDir(name string) error
}

// Syncer is implemented by filesystems that can flush everything to stable
// storage (the whole-FS analogue of File.Sync).
type Syncer interface {
	SyncAll() error
}

// WriteFile writes data to name on fsys, creating or truncating it.
func WriteFile(fsys FS, name string, data []byte) error {
	f, err := fsys.Open(name, WriteOnly|Create|Trunc)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Replace replaces name with the file write fills, crash-safely: write
// gets a fresh temp beside name, created with Excl; the temp is then
// synced, closed and renamed over name, and name's directory is synced.
// A power cut at any step leaves name holding either its old bytes or
// all of the new ones, plus at most an inert temp for SweepTemps.
// Replace returns nil only if every step succeeded; a failure before the
// rename removes the temp. A reader holding name open keeps reading the
// old file until it closes it. name's directory must exist.
func Replace(fsys FS, name string, write func(File) error) error {
	f, temp, err := createTemp(fsys, name)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	// Close after a failure too: it is where a pending backend write
	// failure surfaces.
	if cerr := f.Close(); err == nil {
		err = cerr
	} else if cerr != nil && !errors.Is(cerr, ErrClosed) {
		err = fmt.Errorf("%w (close: %v)", err, cerr)
	}
	if err == nil {
		if err = fsys.Rename(temp, name); err != nil {
			err = fmt.Errorf("vfs: commit %s: %w", name, err)
		}
	}
	if err != nil {
		if rerr := fsys.Remove(temp); rerr != nil {
			err = fmt.Errorf("%w (removing temp %s: %v)", err, temp, rerr)
		}
		return err
	}
	dir, _ := Split(name)
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("vfs: replace %s: %w", name, err)
	}
	return nil
}

// createTemp opens a fresh temp beside name, stepping past any temp
// name a stranded file still holds.
func createTemp(fsys FS, name string) (File, string, error) {
	for {
		temp := TempName(name)
		f, err := fsys.Open(temp, WriteOnly|Create|Excl)
		if !errors.Is(err, ErrExist) {
			return f, temp, err
		}
	}
}

// tempSeq numbers the temps this process creates.
var tempSeq atomic.Uint64

// TempName returns a fresh temp path beside name, "<name>.crfs-<seq>~".
func TempName(name string) string {
	return name + ".crfs-" + strconv.FormatUint(tempSeq.Add(1), 10) + "~"
}

// IsTemp reports whether path names a temp: a TempName, or one of the
// two forms binaries older than Replace staged in, "<n>.crfsd-<seq>.put~"
// (crfsd's PUT) and "<n>.crfs-compact~" (offline compaction). A temp is
// never an object: listings and walks skip it and SweepTemps removes it.
func IsTemp(path string) bool {
	base := path[strings.LastIndexByte(path, '/')+1:]
	rest, ok := strings.CutSuffix(base, "~")
	if !ok {
		return false
	}
	if put, ok := strings.CutSuffix(rest, ".put"); ok {
		return strings.Contains(put, ".crfsd-")
	}
	i := strings.LastIndex(rest, ".crfs-")
	if i < 0 {
		return false
	}
	tag := rest[i+len(".crfs-"):]
	return tag == "compact" || (tag != "" && strings.Trim(tag, "0123456789") == "")
}

// SweepTemps removes every temp under root and returns how many it
// removed. A live Replace's temp is a temp too, so SweepTemps must not
// run beside one on the same tree: it is for startup, drain and offline
// tools.
func SweepTemps(fsys FS, root string) (int, error) {
	entries, err := fsys.ReadDir(root)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, ent := range entries {
		path := Join(root, ent.Name)
		if ent.IsDir {
			n, err := SweepTemps(fsys, path)
			removed += n
			if err != nil {
				return removed, err
			}
			continue
		}
		if IsTemp(ent.Name) {
			if err := fsys.Remove(path); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}

// ReadFile reads the whole named file from fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name, ReadOnly)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	n, err := f.ReadAt(buf, 0)
	if n == len(buf) {
		return buf, nil
	}
	return buf[:n], err
}
