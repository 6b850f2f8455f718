// Package crashfs is the power-cut fault-injection backend of CRFS's
// crash-consistency test substrate. It wraps a fresh in-memory
// filesystem, records every mutation that reaches it — in the exact
// order the backend applied them, file and directory syncs included —
// and can reconstruct the state a power cut at any byte boundary of any
// write would have left behind, by replaying a prefix of the mutation
// log into a fresh memfs.
//
// A cut at (mutation k, byte b) replays in one of two models. Linear:
// mutations 0..k-1 landed whole, the first b bytes of write k landed,
// and nothing after ever happened; it finds a torn frame or a rename
// made before its data, never a missing sync. Volatile: metadata
// (creates, truncates, mkdirs, removes, renames) still lands in order,
// but a file's writes since its last Sync (or SyncAll) are lost, as
// ext4 and XFS allow without data journaling; a rename carries a file's
// synced state to its new name.
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
	// KindSync records a Sync through a writable handle, or a SyncAll
	// (Name "").
	KindSync
	// KindSyncDir records a SyncDir.
	KindSyncDir
)

var kindNames = [...]string{"open", "write", "truncate", "mkdir", "mkdirall", "remove", "rename", "sync", "syncdir"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
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
// write) also landed before the cut. Volatile replays it in the volatile
// model, where a torn write, never synced, is lost.
type Point struct {
	Mut      int
	Bytes    int64
	Volatile bool
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
	var lost []bool
	if p.Volatile {
		lost = unsynced(log[:p.Mut])
	}
	for i := 0; i < p.Mut; i++ {
		if lost != nil && lost[i] {
			continue
		}
		if err := apply(out, log[i], -1); err != nil {
			return nil, fmt.Errorf("crashfs: replay mutation %d (%s %s): %w", i, log[i].Kind, log[i].Name, err)
		}
	}
	if p.Bytes > 0 && !p.Volatile {
		if err := apply(out, log[p.Mut], p.Bytes); err != nil {
			return nil, fmt.Errorf("crashfs: replay torn mutation %d: %w", p.Mut, err)
		}
	}
	return out, nil
}

// unsynced marks the writes of log no later sync of their file covers,
// which the volatile model loses. A file is followed by path across
// renames; a path created after a remove or rename names a new file.
func unsynced(log []Mutation) []bool {
	ids := map[string]int{}
	fileOf := make([]int, len(log))
	lastSync := map[int]int{}
	syncAll := -1
	for i, m := range log {
		switch {
		case m.Kind == KindOpen || m.Kind == KindWrite:
			if ids[m.Name] == 0 {
				ids[m.Name] = i + 1
			}
			fileOf[i] = ids[m.Name]
		case m.Kind == KindSync && m.Name == "":
			syncAll = i
		case m.Kind == KindSync:
			lastSync[ids[m.Name]] = i
		case m.Kind == KindRename:
			ids[m.New] = ids[m.Name]
			fallthrough
		case m.Kind == KindRemove:
			delete(ids, m.Name)
		}
	}
	lost := make([]bool, len(log))
	for i, m := range log {
		lost[i] = m.Kind == KindWrite && i > syncAll && i > lastSync[fileOf[i]]
	}
	return lost
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
	case KindSync, KindSyncDir:
		return nil
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
	if mutates {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	f, err := c.inner.Open(name, flag)
	if err != nil {
		return nil, err
	}
	if mutates {
		c.recordLocked(Mutation{Kind: KindOpen, Name: vfs.Clean(name), Flag: flag})
	}
	return &file{fs: c, inner: f, name: vfs.Clean(name), writable: flag.Writable()}, nil
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

// SyncDir implements vfs.FS. Both models keep metadata in order, so a
// replayed SyncDir changes nothing; it is logged so a test can see it.
func (c *FS) SyncDir(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.inner.SyncDir(name)
	if err == nil {
		c.recordLocked(Mutation{Kind: KindSyncDir, Name: vfs.Clean(name)})
	}
	return err
}

// SyncAll implements vfs.Syncer: in the volatile model it makes every
// file's writes so far durable.
func (c *FS) SyncAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recordLocked(Mutation{Kind: KindSync})
	return nil
}

// file wraps an inner handle and records its mutations.
type file struct {
	fs       *FS
	inner    vfs.File
	name     string
	writable bool
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

// Sync implements vfs.File. Through a writable handle it is logged: in
// the volatile model it makes the file's writes so far durable. A
// read-only handle wrote nothing, so its Sync is not logged.
func (f *file) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	err := f.inner.Sync()
	if err == nil && f.writable {
		f.fs.recordLocked(Mutation{Kind: KindSync, Name: f.name})
	}
	return err
}

// Stat implements vfs.File.
func (f *file) Stat() (vfs.FileInfo, error) { return f.inner.Stat() }

// Close implements vfs.File.
func (f *file) Close() error { return f.inner.Close() }

var (
	_ vfs.FS     = (*FS)(nil)
	_ vfs.Syncer = (*FS)(nil)
)
