// Package memfs provides an in-memory implementation of vfs.FS.
//
// It is the reference backend for CRFS tests and for the raw-bandwidth
// experiment of the paper (Fig. 5), where filled chunks are "discarded
// without being written to a back-end filesystem": a memfs in Discard mode
// accepts writes and drops the bytes, isolating CRFS's aggregation
// pipeline from backend behaviour exactly as §V-B describes.
//
// memfs also supports fault and latency injection so that CRFS error paths
// (IO-thread write failures surfacing at close/fsync) can be tested.
package memfs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"crfs/internal/vfs"
)

// Option configures a FS.
type Option func(*FS)

// WithDiscard makes the filesystem drop all written data while still
// tracking file sizes and metadata. Reads of discarded data return zeros.
func WithDiscard() Option { return func(m *FS) { m.discard = true } }

// WithWriteDelay adds a fixed sleep to every WriteAt, simulating a slow
// backend in real-time tests of the CRFS pipeline.
func WithWriteDelay(d time.Duration) Option { return func(m *FS) { m.writeDelay = d } }

// WithReadDelay adds a fixed sleep to every ReadAt, simulating restart
// reads from a slow backend (the latency the read-ahead pipeline hides).
func WithReadDelay(d time.Duration) Option { return func(m *FS) { m.readDelay = d } }

// WithClock replaces the clock stamping file mtimes, letting tests model
// backends with coarse or frozen timestamps (the mtime-based probe-cache
// validation in core is only as good as the backend's clock).
func WithClock(now func() time.Time) Option { return func(m *FS) { m.now = now } }

// WithWriteError arranges for WriteAt to fail with err after the first n
// successful writes (n counts across all files). n < 0 disables injection.
func WithWriteError(n int, err error) Option {
	return func(m *FS) {
		m.failAfter = n
		m.failErr = err
	}
}

// ErrTornWrite is the error a write torn by WithTornWrite fails with.
var ErrTornWrite = errors.New("memfs: torn write")

// WithReadError arranges for ReadAt to fail with err after the first n
// successful reads (n counts across all files), modelling media that
// goes bad mid-stream: opens and early reads succeed, then every later
// read fails. n < 0 disables injection.
func WithReadError(n int, err error) Option {
	return func(m *FS) {
		m.readFailAfter = n
		m.readFailErr = err
	}
}

// WithTornWrite arranges for the write after the first n successful
// writes (counted across all files, like WithWriteError) to persist only
// the first ceil(frac*len) bytes of its payload before failing with
// ErrTornWrite — the backend-visible signature of a power cut mid-write.
// Exactly one write is torn; later writes succeed, so error paths can be
// exercised without the full crashfs harness. n < 0 disables injection.
func WithTornWrite(n int, frac float64) Option {
	return func(m *FS) {
		m.tornAfter = n
		m.tornFrac = frac
	}
}

type node struct {
	isDir    bool
	data     []byte
	size     int64 // authoritative size (data may be nil in discard mode)
	modTime  time.Time
	children map[string]bool // for directories
}

// FS is an in-memory vfs.FS. The zero value is not usable; call New.
// All methods are safe for concurrent use.
type FS struct {
	mu         sync.Mutex
	nodes      map[string]*node
	discard    bool
	writeDelay time.Duration
	readDelay  time.Duration
	failAfter  int
	failErr    error

	readFailAfter int
	readFailErr   error
	reads         int // completed reads, for failure injection
	tornAfter     int
	tornFrac      float64
	tornDone      bool
	writes        int // completed writes, for failure injection
	now           func() time.Time

	// Counters for tests and stats reporting.
	statWrites  int64
	statWrBytes int64
	statReads   int64
	statRdBytes int64
	statSyncs   int64
	statOpens   int64
}

// New returns an empty in-memory filesystem.
func New(opts ...Option) *FS {
	m := &FS{
		nodes:         map[string]*node{".": {isDir: true, children: map[string]bool{}}},
		failAfter:     -1,
		readFailAfter: -1,
		tornAfter:     -1,
		now:           time.Now,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Stats reports operation counters accumulated since New.
type Stats struct {
	Opens, Writes, Reads, Syncs int64
	BytesWritten, BytesRead     int64
}

// Stats returns a snapshot of the operation counters.
func (m *FS) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Opens: m.statOpens, Writes: m.statWrites, Reads: m.statReads,
		Syncs: m.statSyncs, BytesWritten: m.statWrBytes, BytesRead: m.statRdBytes,
	}
}

func (m *FS) lookup(name string) (*node, string, error) {
	key := vfs.Clean(name)
	n, ok := m.nodes[key]
	if !ok {
		return nil, key, fmt.Errorf("memfs: %s: %w", key, vfs.ErrNotExist)
	}
	return n, key, nil
}

// Open implements vfs.FS.
func (m *FS) Open(name string, flag vfs.OpenFlag) (vfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.statOpens++
	key := vfs.Clean(name)
	if key == "." {
		return nil, fmt.Errorf("memfs: open %s: %w", key, vfs.ErrIsDir)
	}
	n, ok := m.nodes[key]
	switch {
	case ok && n.isDir:
		return nil, fmt.Errorf("memfs: open %s: %w", key, vfs.ErrIsDir)
	case ok && flag&vfs.Excl != 0 && flag&vfs.Create != 0:
		return nil, fmt.Errorf("memfs: open %s: %w", key, vfs.ErrExist)
	case !ok && flag&vfs.Create == 0:
		return nil, fmt.Errorf("memfs: open %s: %w", key, vfs.ErrNotExist)
	case !ok:
		dir, base := vfs.Split(key)
		parent, pok := m.nodes[dir]
		if !pok {
			return nil, fmt.Errorf("memfs: open %s: parent: %w", key, vfs.ErrNotExist)
		}
		if !parent.isDir {
			return nil, fmt.Errorf("memfs: open %s: parent: %w", key, vfs.ErrNotDir)
		}
		n = &node{modTime: m.now()}
		m.nodes[key] = n
		parent.children[base] = true
	}
	if flag&vfs.Trunc != 0 && flag.Writable() {
		n.data = nil
		n.size = 0
	}
	return &file{fs: m, node: n, name: key, flag: flag}, nil
}

// Mkdir implements vfs.FS.
func (m *FS) Mkdir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mkdirLocked(name)
}

func (m *FS) mkdirLocked(name string) error {
	key := vfs.Clean(name)
	if key == "." {
		return fmt.Errorf("memfs: mkdir %s: %w", key, vfs.ErrExist)
	}
	if _, ok := m.nodes[key]; ok {
		return fmt.Errorf("memfs: mkdir %s: %w", key, vfs.ErrExist)
	}
	dir, base := vfs.Split(key)
	parent, ok := m.nodes[dir]
	if !ok {
		return fmt.Errorf("memfs: mkdir %s: parent: %w", key, vfs.ErrNotExist)
	}
	if !parent.isDir {
		return fmt.Errorf("memfs: mkdir %s: parent: %w", key, vfs.ErrNotDir)
	}
	m.nodes[key] = &node{isDir: true, children: map[string]bool{}, modTime: m.now()}
	parent.children[base] = true
	return nil
}

// MkdirAll implements vfs.FS.
func (m *FS) MkdirAll(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := vfs.Clean(name)
	if key == "." {
		return nil
	}
	for _, anc := range append(vfs.Ancestors(key), key) {
		if n, ok := m.nodes[anc]; ok {
			if !n.isDir {
				return fmt.Errorf("memfs: mkdirall %s: %w", anc, vfs.ErrNotDir)
			}
			continue
		}
		if err := m.mkdirLocked(anc); err != nil {
			return err
		}
	}
	return nil
}

// Remove implements vfs.FS.
func (m *FS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, key, err := m.lookup(name)
	if err != nil {
		return err
	}
	if key == "." {
		return fmt.Errorf("memfs: remove root: %w", vfs.ErrInvalid)
	}
	if n.isDir && len(n.children) > 0 {
		return fmt.Errorf("memfs: remove %s: %w", key, vfs.ErrNotEmpty)
	}
	dir, base := vfs.Split(key)
	delete(m.nodes[dir].children, base)
	delete(m.nodes, key)
	return nil
}

// Rename implements vfs.FS. Directories move with their subtrees.
func (m *FS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, oldKey, err := m.lookup(oldName)
	if err != nil {
		return err
	}
	newKey := vfs.Clean(newName)
	if newKey == "." || oldKey == "." {
		return fmt.Errorf("memfs: rename involving root: %w", vfs.ErrInvalid)
	}
	if existing, ok := m.nodes[newKey]; ok && existing.isDir {
		return fmt.Errorf("memfs: rename to %s: %w", newKey, vfs.ErrIsDir)
	}
	dir, base := vfs.Split(newKey)
	parent, ok := m.nodes[dir]
	if !ok || !parent.isDir {
		return fmt.Errorf("memfs: rename to %s: parent: %w", newKey, vfs.ErrNotExist)
	}
	oldDir, oldBase := vfs.Split(oldKey)
	delete(m.nodes[oldDir].children, oldBase)
	delete(m.nodes, oldKey)
	m.nodes[newKey] = n
	parent.children[base] = true
	if n.isDir {
		prefix := oldKey + "/"
		var moves [][2]string
		for k := range m.nodes {
			if len(k) > len(prefix) && k[:len(prefix)] == prefix {
				moves = append(moves, [2]string{k, newKey + "/" + k[len(prefix):]})
			}
		}
		for _, mv := range moves {
			m.nodes[mv[1]] = m.nodes[mv[0]]
			delete(m.nodes, mv[0])
		}
	}
	return nil
}

// Stat implements vfs.FS.
func (m *FS) Stat(name string) (vfs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, key, err := m.lookup(name)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	_, base := vfs.Split(key)
	if key == "." {
		base = "."
	}
	return vfs.FileInfo{Name: base, Size: n.size, ModTime: n.modTime, IsDir: n.isDir}, nil
}

// ReadDir implements vfs.FS.
func (m *FS) ReadDir(name string) ([]vfs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, key, err := m.lookup(name)
	if err != nil {
		return nil, err
	}
	if !n.isDir {
		return nil, fmt.Errorf("memfs: readdir %s: %w", key, vfs.ErrNotDir)
	}
	names := make([]string, 0, len(n.children))
	for c := range n.children {
		names = append(names, c)
	}
	sort.Strings(names)
	out := make([]vfs.DirEntry, len(names))
	for i, c := range names {
		child := m.nodes[vfs.Join(key, c)]
		out[i] = vfs.DirEntry{Name: c, IsDir: child.isDir}
	}
	return out, nil
}

// Truncate implements vfs.FS.
func (m *FS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, key, err := m.lookup(name)
	if err != nil {
		return err
	}
	if n.isDir {
		return fmt.Errorf("memfs: truncate %s: %w", key, vfs.ErrIsDir)
	}
	if size < 0 {
		return fmt.Errorf("memfs: truncate %s: %w", key, vfs.ErrInvalid)
	}
	m.truncateLocked(n, size)
	return nil
}

func (m *FS) truncateLocked(n *node, size int64) {
	if !m.discard {
		switch {
		case size < int64(len(n.data)):
			n.data = n.data[:size]
		case size > int64(len(n.data)):
			n.data = extend(n.data, size)
		}
	}
	n.size = size
	n.modTime = m.now()
}

// extend grows data to size bytes, zero-filling the new tail. Capacity
// grows geometrically (append's policy), so a file extended by many small
// writes costs amortized O(bytes) instead of one full copy per write; the
// zero-fill also covers capacity a previous shrink left behind.
func extend(data []byte, size int64) []byte {
	return append(data, make([]byte, size-int64(len(data)))...)
}

// SyncAll implements vfs.Syncer; memfs is always "stable".
func (m *FS) SyncAll() error { return nil }

// SyncDir implements vfs.FS; memory is always as stable as it gets.
func (m *FS) SyncDir(string) error { return nil }

type file struct {
	fs   *FS
	node *node
	name string
	flag vfs.OpenFlag

	mu     sync.Mutex
	closed bool
}

func (f *file) Name() string { return f.name }

func (f *file) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("memfs: %s: %w", f.name, vfs.ErrClosed)
	}
	return nil
}

// WriteAt implements vfs.File.
func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if !f.flag.Writable() {
		return 0, fmt.Errorf("memfs: write %s: %w", f.name, vfs.ErrReadOnly)
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: write %s: negative offset: %w", f.name, vfs.ErrInvalid)
	}
	if f.fs.writeDelay > 0 {
		time.Sleep(f.fs.writeDelay)
	}
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failAfter >= 0 && m.writes >= m.failAfter {
		return 0, fmt.Errorf("memfs: write %s: injected: %w", f.name, m.failErr)
	}
	var tornErr error
	if m.tornAfter >= 0 && !m.tornDone && m.writes >= m.tornAfter {
		// Power-cut simulation: persist a prefix, then fail. The torn
		// write still advances the write counter (it happened, partially)
		// but is not counted as a completed write in the stats.
		m.tornDone = true
		keep := int(math.Ceil(m.tornFrac * float64(len(p))))
		keep = max(0, min(keep, len(p)))
		tornErr = fmt.Errorf("memfs: write %s: injected: %w", f.name, ErrTornWrite)
		if keep == 0 {
			// Nothing persisted: the file must not even grow.
			m.writes++
			return 0, tornErr
		}
		p = p[:keep]
	}
	end := off + int64(len(p))
	if !m.discard {
		if end > int64(len(f.node.data)) {
			f.node.data = extend(f.node.data, end)
		}
		copy(f.node.data[off:end], p)
	}
	if end > f.node.size {
		f.node.size = end
	}
	f.node.modTime = m.now()
	m.writes++
	if tornErr != nil {
		return len(p), tornErr
	}
	m.statWrites++
	m.statWrBytes += int64(len(p))
	return len(p), nil
}

// ReadAt implements vfs.File.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if !f.flag.Readable() {
		return 0, fmt.Errorf("memfs: read %s: %w", f.name, vfs.ErrReadOnly)
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: read %s: negative offset: %w", f.name, vfs.ErrInvalid)
	}
	if f.fs.readDelay > 0 {
		time.Sleep(f.fs.readDelay)
	}
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.readFailAfter >= 0 && m.reads >= m.readFailAfter {
		return 0, fmt.Errorf("memfs: read %s: injected: %w", f.name, m.readFailErr)
	}
	m.reads++
	if off >= f.node.size {
		return 0, io.EOF
	}
	n := int64(len(p))
	if off+n > f.node.size {
		n = f.node.size - off
	}
	if m.discard {
		for i := int64(0); i < n; i++ {
			p[i] = 0
		}
	} else {
		copy(p[:n], f.node.data[off:off+n])
	}
	m.statReads++
	m.statRdBytes += n
	if n < int64(len(p)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// Truncate implements vfs.File.
func (f *file) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("memfs: truncate %s: %w", f.name, vfs.ErrInvalid)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.truncateLocked(f.node, size)
	return nil
}

// Sync implements vfs.File.
func (f *file) Sync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.statSyncs++
	f.fs.mu.Unlock()
	return nil
}

// Stat implements vfs.File. Like fstat(2) it describes the open file,
// not whatever a rename has since put under its name.
func (f *file) Stat() (vfs.FileInfo, error) {
	if err := f.checkOpen(); err != nil {
		return vfs.FileInfo{}, err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	_, base := vfs.Split(f.name)
	return vfs.FileInfo{Name: base, Size: f.node.size, ModTime: f.node.modTime}, nil
}

// Close implements vfs.File.
func (f *file) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("memfs: close %s: %w", f.name, vfs.ErrClosed)
	}
	f.closed = true
	return nil
}

var _ vfs.FS = (*FS)(nil)
var _ vfs.Syncer = (*FS)(nil)
