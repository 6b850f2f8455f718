// Package crfs is the public API of the CRFS library — a reimplementation
// of the Checkpoint/Restart Filesystem of Ouyang, Rajachandrasekar,
// Besseron, Wang, Huang and Panda ("CRFS: A Lightweight User-Level
// Filesystem for Generic Checkpoint/Restart", ICPP 2011).
//
// CRFS is a stackable, write-aggregating filesystem layer: it intercepts
// writes, coalesces them into large fixed-size chunks drawn from a bounded
// buffer pool, and writes the chunks to the backing filesystem
// asynchronously from a small pool of IO worker goroutines that throttle
// backend concurrency. Close and Sync block until every outstanding chunk
// of the file has landed, so a file written via CRFS can be read directly
// from the backend afterwards — no layout is changed (with the default raw
// codec). Close does not flush the backend's own cache, as in the paper;
// a caller that needs that calls Sync before Close. The tunables are the
// paper's three (Options.BufferPoolSize, ChunkSize, IOThreads).
//
// Reads are read-your-writes without stalling the pipeline: data still
// buffered or in flight is served from the chunk buffers themselves (the
// buffered-read-through overlay), so mixed read/write workloads and
// restart-while-checkpointing never collapse the asynchronous write path
// the way a drain-before-read would.
//
// Optionally, a chunk codec (Options.Codec) compresses each chunk on the
// IO workers before the backend write, trading CPU on the otherwise
// IO-bound checkpoint path for backend IO volume. With a non-raw codec
// each file becomes a self-describing container of independently encoded
// frames; reads through any CRFS mount decode such containers
// transparently, and incompressible chunks fall back to raw frames. The
// default raw codec keeps the seed passthrough behavior byte-identical.
//
// Restart — the sequential read-back of a checkpoint image — has its own
// pipeline (Options.ReadAhead): a handle detected reading sequentially
// triggers prefetch of the next chunks or frames, fetched and decoded in
// parallel on the same IO workers, so restart throughput is no longer
// bounded by single-stream backend latency. Prefetched bytes are
// invalidated by writes, truncates, and renames, and buffered writes
// always shadow them, so read results never change — only their cost.
//
// Crash consistency is a stated contract: everything acknowledged by
// Sync or Close survives a crash byte-identically, overwritten data is
// never resurrected, and unsynced tails only ever shorten a file. A
// frame container torn by a crash mid-append is salvaged at open — reads
// serve the longest intact frame prefix instead of failing the file —
// and Options.RepairOnOpen additionally truncates the backend file to
// that prefix. The Containers* and Salvage* fields of Stats report
// salvage activity, and backend write failures surface exactly once, at
// the next Sync or Close. The contract is enforced by a crash-point
// enumeration harness (internal/crashfs, TestCrashPoints*) that replays
// a power cut at every byte boundary of a workload's backend writes.
//
// Containers are log-structured and last-writer-wins, so rewrite-heavy
// checkpoint workloads accumulate dead frames without bound. Compaction
// is offline work: crfsck -compact rewrites each container under a
// backing directory to its minimal equivalent — byte-identical reads,
// dead bytes reclaimed — via a crash-safe temp-write + rename replace.
// FS.Scrub re-verifies every frame of every container on a live mount
// over a worker pool of its own; crfsck runs the same verifier offline
// and, with -repair, truncates damage to the verified prefix.
//
// Quick start:
//
//	backend, _ := crfs.DirBackend("/mnt/scratch")
//	fs, _ := crfs.Mount(backend, crfs.Options{})
//	defer fs.Unmount()
//	f, _ := fs.Open("ckpt/rank0.img", crfs.WriteOnly|crfs.Create)
//	f.WriteAt(payload, 0) // returns after the copy; IO is asynchronous
//	f.Close()             // blocks until all chunks reached the backend
//
// The repository also contains, under internal/, the full simulation
// substrate reproducing the paper's evaluation: a deterministic
// discrete-event cluster with ext3/NFS/Lustre models, BLCR checkpoint
// streams, and the three MPI stacks' coordinated checkpoint protocol. See
// DESIGN.md and EXPERIMENTS.md.
package crfs

import (
	"crfs/internal/codec"
	"crfs/internal/compact"
	"crfs/internal/core"
	"crfs/internal/memfs"
	"crfs/internal/osfs"
	"crfs/internal/vfs"
)

// Core types, re-exported from the implementation packages.
type (
	// FS is a CRFS mount; it implements Filesystem.
	FS = core.FS
	// Options configures a mount; the zero value selects the paper's
	// defaults (16 MB pool, 4 MB chunks, 4 IO threads).
	Options = core.Options
	// Stats is a snapshot of mount activity counters.
	Stats = core.Stats
	// Codec encodes and decodes aggregation chunks (Options.Codec).
	Codec = codec.Codec
	// Filesystem is the interface CRFS stacks over and exposes upward.
	Filesystem = vfs.FS
	// File is an open file handle.
	File = vfs.File
	// FileInfo describes a file.
	FileInfo = vfs.FileInfo
	// DirEntry is a directory listing entry.
	DirEntry = vfs.DirEntry
	// OpenFlag selects open modes.
	OpenFlag = vfs.OpenFlag
	// ScrubReport is an FS.Scrub pass's findings (per-frame verification
	// totals and the containers with defects).
	ScrubReport = compact.Report
)

// Open flags, re-exported for call-site convenience.
const (
	ReadOnly  = vfs.ReadOnly
	WriteOnly = vfs.WriteOnly
	ReadWrite = vfs.ReadWrite
	Create    = vfs.Create
	Excl      = vfs.Excl
	Trunc     = vfs.Trunc
)

// Defaults chosen by the paper's evaluation (§V-B).
const (
	DefaultBufferPoolSize = core.DefaultBufferPoolSize
	DefaultChunkSize      = core.DefaultChunkSize
	DefaultIOThreads      = core.DefaultIOThreads
)

// RestoreReadAhead is the Options.ReadAhead depth the tools mount with
// wherever checkpoints are read back (crfsd GET streams, crfscp
// -restore; the repository benchmark writes the same 8).
const RestoreReadAhead = 8

// RawCodec returns the passthrough chunk codec (the default): backend
// output is byte-identical to a codec-less mount.
func RawCodec() Codec { return codec.Raw() }

// DeflateCodec returns the DEFLATE chunk codec: files become frame
// containers whose chunks are compressed in parallel on the IO workers.
func DeflateCodec() Codec { return codec.Deflate() }

// LookupCodec resolves a chunk codec by name ("raw", "deflate").
func LookupCodec(name string) (Codec, error) { return codec.Lookup(name) }

// CodecNames lists the registered chunk codec names.
func CodecNames() []string { return codec.Names() }

// Common sentinel errors.
var (
	ErrNotExist = vfs.ErrNotExist
	ErrExist    = vfs.ErrExist
	ErrClosed   = vfs.ErrClosed
	ErrInvalid  = vfs.ErrInvalid
	ErrReadOnly = vfs.ErrReadOnly
	// ErrCorrupt reports a malformed or inconsistent container frame;
	// ErrChecksum is its sub-error for a v2 payload that decoded but
	// failed its CRC32-C (errors.Is(err, ErrCorrupt) holds for both).
	ErrCorrupt  = codec.ErrCorrupt
	ErrChecksum = codec.ErrChecksum
)

// Mount stacks CRFS over a backend filesystem.
func Mount(backend Filesystem, opts Options) (*FS, error) {
	return core.Mount(backend, opts)
}

// MountDir mounts CRFS over a host directory (the common deployment: the
// directory lives on ext3/NFS/Lustre and CRFS aggregates writes into it).
func MountDir(dir string, opts Options) (*FS, error) {
	backend, err := osfs.New(dir)
	if err != nil {
		return nil, err
	}
	return core.Mount(backend, opts)
}

// DirBackend exposes a host directory as a backend Filesystem.
func DirBackend(dir string) (Filesystem, error) { return osfs.New(dir) }

// MemBackend returns an in-memory backend Filesystem, useful for tests
// and benchmarks.
func MemBackend() Filesystem { return memfs.New() }

// ReadFile reads a whole file from any Filesystem.
func ReadFile(fsys Filesystem, name string) ([]byte, error) { return vfs.ReadFile(fsys, name) }

// WriteFile writes data to a file on any Filesystem, creating or
// truncating it.
func WriteFile(fsys Filesystem, name string, data []byte) error {
	return vfs.WriteFile(fsys, name, data)
}
