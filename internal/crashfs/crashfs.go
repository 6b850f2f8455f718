// Package crashfs is the power-cut fault-injection backend of CRFS's
// crash-consistency test substrate. It wraps a fresh in-memory
// filesystem, records every mutation that reaches it — in the exact
// order the backend applied them — and can reconstruct the state a
// power cut at any byte boundary of any write would have left behind,
// by replaying a prefix of the mutation log into a fresh memfs.
//
// The crash model is a linear persistence history: mutations become
// durable in apply order, and a cut at (mutation k, byte b) means
// mutations 0..k-1 landed whole, the first b bytes of write k landed,
// and nothing after ever happened. Real disks can reorder writes across
// barriers; CRFS's own durability surface (Sync/Close return only after
// the backend acknowledged the file's chunks) is what the model is
// built to check, and memfs acknowledges synchronously, so the linear
// model is exact for this stack.
//
// Known limitation: replay is path-based, so mutations issued through a
// handle of an already-removed file (POSIX unlink-of-open semantics)
// would be replayed against a re-created path. Harness workloads do not
// remove open files.
package crashfs

import (
	"fmt"
	"sync"

	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// Kind discriminates recorded mutations.
type Kind int

// Mutation kinds.
const (
	// KindOpen records an Open whose flags can mutate state (Create
	// and/or a writable Trunc).
	KindOpen Kind = iota
	// KindWrite records one WriteAt payload.
	KindWrite
	// KindTruncate records a Truncate (file-handle or FS-level).
	KindTruncate
	// KindMkdir records a Mkdir.
	KindMkdir
	// KindMkdirAll records a MkdirAll.
	KindMkdirAll
	// KindRemove records a Remove.
	KindRemove
	// KindRename records a Rename.
	KindRename
)

func (k Kind) String() string {
	switch k {
	case KindOpen:
		return "open"
	case KindWrite:
		return "write"
	case KindTruncate:
		return "truncate"
	case KindMkdir:
		return "mkdir"
	case KindMkdirAll:
		return "mkdirall"
	case KindRemove:
		return "remove"
	case KindRename:
		return "rename"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Mutation is one recorded state change, in apply order.
type Mutation struct {
	Kind Kind
	Name string
	New  string       // rename destination
	Flag vfs.OpenFlag // open flags
	Off  int64        // write offset
	Size int64        // truncate size
	Data []byte       // write payload (copied; never mutated after record)
}

// Point designates a crash instant: mutations 0..Mut-1 are durable and,
// when Bytes > 0, the first Bytes bytes of mutation Mut (which must be a
// write) also landed before the cut.
type Point struct {
	Mut   int
	Bytes int64
}

// FS wraps an in-memory filesystem it owns and logs every mutation.
// All methods are safe for concurrent use; the log order is the order
// mutations were applied to the inner filesystem.
type FS struct {
	inner *memfs.FS

	mu  sync.Mutex
	log []Mutation
}

// New returns a crash-recording filesystem over a fresh, empty memfs.
func New() *FS {
	return &FS{inner: memfs.New()}
}

// Len returns the number of recorded mutations.
func (c *FS) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.log)
}

// Mutations returns a snapshot of the mutation log.
func (c *FS) Mutations() []Mutation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Mutation, len(c.log))
	copy(out, c.log)
	return out
}

// Boundaries enumerates the crash points at every mutation boundary:
// point k replays exactly the first k mutations, from "power never came
// on" (k = 0) to "everything landed" (k = Len).
func (c *FS) Boundaries() []Point {
	n := c.Len()
	out := make([]Point, 0, n+1)
	for k := 0; k <= n; k++ {
		out = append(out, Point{Mut: k})
	}
	return out
}

// TornPoints returns intra-write cuts for mutation i: a cut just inside
// the payload, mid-payload, and one byte short of complete. Non-write
// mutations (and writes too short to cut) have none.
func (c *FS) TornPoints(i int) []Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.log) || c.log[i].Kind != KindWrite {
		return nil
	}
	n := int64(len(c.log[i].Data))
	var out []Point
	seen := map[int64]bool{}
	for _, b := range []int64{1, n / 2, n - 1} {
		if b > 0 && b < n && !seen[b] {
			seen[b] = true
			out = append(out, Point{Mut: i, Bytes: b})
		}
	}
	return out
}

// Replay materializes the post-crash state of p into a fresh memfs.
func (c *FS) Replay(p Point) (*memfs.FS, error) {
	log := c.Mutations()
	if p.Mut < 0 || p.Mut > len(log) || p.Bytes < 0 {
		return nil, fmt.Errorf("crashfs: invalid crash point %+v of %d mutations", p, len(log))
	}
	if p.Bytes > 0 {
		if p.Mut >= len(log) || log[p.Mut].Kind != KindWrite {
			return nil, fmt.Errorf("crashfs: crash point %+v cuts a non-write mutation", p)
		}
		if p.Bytes > int64(len(log[p.Mut].Data)) {
			return nil, fmt.Errorf("crashfs: crash point %+v cuts past the write payload", p)
		}
	}
	out := memfs.New()
	for i := 0; i < p.Mut; i++ {
		if err := apply(out, log[i], -1); err != nil {
			return nil, fmt.Errorf("crashfs: replay mutation %d (%s %s): %w", i, log[i].Kind, log[i].Name, err)
		}
	}
	if p.Bytes > 0 {
		if err := apply(out, log[p.Mut], p.Bytes); err != nil {
			return nil, fmt.Errorf("crashfs: replay torn mutation %d: %w", p.Mut, err)
		}
	}
	return out, nil
}

// apply re-executes one mutation on fs; nbytes >= 0 truncates a write's
// payload to its first nbytes (the torn cut).
func apply(fs *memfs.FS, m Mutation, nbytes int64) error {
	switch m.Kind {
	case KindOpen:
		f, err := fs.Open(m.Name, m.Flag)
		if err != nil {
			return err
		}
		return f.Close()
	case KindWrite:
		f, err := fs.Open(m.Name, vfs.WriteOnly)
		if err != nil {
			return err
		}
		data := m.Data
		if nbytes >= 0 {
			data = data[:nbytes]
		}
		if len(data) > 0 {
			if _, err := f.WriteAt(data, m.Off); err != nil {
				f.Close()
				return err
			}
		}
		return f.Close()
	case KindTruncate:
		return fs.Truncate(m.Name, m.Size)
	case KindMkdir:
		return fs.Mkdir(m.Name)
	case KindMkdirAll:
		return fs.MkdirAll(m.Name)
	case KindRemove:
		return fs.Remove(m.Name)
	case KindRename:
		return fs.Rename(m.Name, m.New)
	default:
		return fmt.Errorf("crashfs: unknown mutation kind %d", m.Kind)
	}
}

// record appends m to the log. Callers hold c.mu across the inner
// operation and the append, so log order is apply order.
func (c *FS) recordLocked(m Mutation) {
	c.log = append(c.log, m)
}

// Open implements vfs.FS. State-changing opens (Create, writable Trunc)
// are recorded; pure read opens pass through.
func (c *FS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	mutates := flag&vfs.Create != 0 || (flag&vfs.Trunc != 0 && flag.Writable())
	if !mutates {
		f, err := c.inner.Open(name, flag)
		if err != nil {
			return nil, err
		}
		return &file{fs: c, inner: f, name: vfs.Clean(name)}, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := c.inner.Open(name, flag)
	if err != nil {
		return nil, err
	}
	c.recordLocked(Mutation{Kind: KindOpen, Name: vfs.Clean(name), Flag: flag})
	return &file{fs: c, inner: f, name: vfs.Clean(name)}, nil
}

// Mkdir implements vfs.FS.
func (c *FS) Mkdir(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Mkdir(name); err != nil {
		return err
	}
	c.recordLocked(Mutation{Kind: KindMkdir, Name: vfs.Clean(name)})
	return nil
}

// MkdirAll implements vfs.FS.
func (c *FS) MkdirAll(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.MkdirAll(name); err != nil {
		return err
	}
	c.recordLocked(Mutation{Kind: KindMkdirAll, Name: vfs.Clean(name)})
	return nil
}

// Remove implements vfs.FS.
func (c *FS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.recordLocked(Mutation{Kind: KindRemove, Name: vfs.Clean(name)})
	return nil
}

// Rename implements vfs.FS.
func (c *FS) Rename(oldName, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Rename(oldName, newName); err != nil {
		return err
	}
	c.recordLocked(Mutation{Kind: KindRename, Name: vfs.Clean(oldName), New: vfs.Clean(newName)})
	return nil
}

// Stat implements vfs.FS (read-only passthrough).
func (c *FS) Stat(name string) (vfs.FileInfo, error) { return c.inner.Stat(name) }

// ReadDir implements vfs.FS (read-only passthrough).
func (c *FS) ReadDir(name string) ([]vfs.DirEntry, error) { return c.inner.ReadDir(name) }

// Truncate implements vfs.FS.
func (c *FS) Truncate(name string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Truncate(name, size); err != nil {
		return err
	}
	c.recordLocked(Mutation{Kind: KindTruncate, Name: vfs.Clean(name), Size: size})
	return nil
}

// SyncDir implements vfs.FS (passthrough; the linear model makes every
// mutation durable in apply order, so it records nothing).
func (c *FS) SyncDir(name string) error { return c.inner.SyncDir(name) }

// SyncAll implements vfs.Syncer (memfs is always stable).
func (c *FS) SyncAll() error { return nil }

// file wraps an inner handle and records its mutations.
type file struct {
	fs    *FS
	inner vfs.File
	name  string
}

func (f *file) Name() string { return f.name }

// ReadAt implements vfs.File (read-only passthrough).
func (f *file) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

// WriteAt implements vfs.File, recording the payload.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	n, err := f.inner.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	f.fs.recordLocked(Mutation{
		Kind: KindWrite, Name: f.name, Off: off,
		Data: append([]byte(nil), p...),
	})
	return n, nil
}

// Truncate implements vfs.File.
func (f *file) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.inner.Truncate(size); err != nil {
		return err
	}
	f.fs.recordLocked(Mutation{Kind: KindTruncate, Name: f.name, Size: size})
	return nil
}

// Sync implements vfs.File. memfs persists synchronously, so a sync is
// not a mutation: every logged write before this call is already
// durable in the crash model.
func (f *file) Sync() error { return f.inner.Sync() }

// Stat implements vfs.File.
func (f *file) Stat() (vfs.FileInfo, error) { return f.inner.Stat() }

// Close implements vfs.File.
func (f *file) Close() error { return f.inner.Close() }

var (
	_ vfs.FS     = (*FS)(nil)
	_ vfs.Syncer = (*FS)(nil)
)
