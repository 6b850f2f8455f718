// Package cluster assembles whole checkpoint experiments: it builds the
// simulated testbed (compute nodes with local ext3, or a shared NFS or
// Lustre installation), optionally mounts CRFS on every node, runs a
// coordinated MPI checkpoint through BLCR on every process, and collects
// the per-process measurements the paper reports.
//
// The modelled testbed follows §V-A: 64 available nodes with eight
// 2.33 GHz Xeon cores, 6 GB of memory and one ST3250620NS disk each, DDR
// InfiniBand, Lustre 1.8.3 with 1 MDS + 3 OSS, and a single NFSv3 server
// over IPoIB.
package cluster

import (
	"fmt"

	"crfs/internal/blcr"
	"crfs/internal/des"
	"crfs/internal/disk"
	"crfs/internal/ext3"
	"crfs/internal/lustre"
	"crfs/internal/metrics"
	"crfs/internal/mpi"
	"crfs/internal/nfs"
	"crfs/internal/simcrfs"
	"crfs/internal/simio"
	"crfs/internal/workload"
)

// Backend names a backing filesystem.
type Backend string

// The paper's three backends.
const (
	Ext3   Backend = "ext3"
	Lustre Backend = "lustre"
	NFS    Backend = "nfs"
)

// Backends lists the evaluated backends in the paper's order.
func Backends() []Backend { return []Backend{Ext3, Lustre, NFS} }

// Config describes one checkpoint experiment.
type Config struct {
	Nodes        int
	ProcsPerNode int
	Backend      Backend
	UseCRFS      bool
	CRFS         simcrfs.Options
	Stack        mpi.Stack
	Class        workload.Class
	Seed         int64
	// TraceNode0 captures the block-level trace of node 0's disk (or of
	// the first server disk for shared backends) for Fig. 10 analysis.
	TraceNode0 bool
	// Overrides for substrate parameters (zero values = defaults).
	Ext3Params   ext3.Params
	NFSParams    nfs.Params
	LustreParams lustre.Params
}

// Result carries everything the experiments need.
type Result struct {
	Config     Config
	Failed     bool // reproduced known checkpoint failure (Fig. 8)
	ImageBytes int64
	TotalBytes int64
	Logs       []*metrics.ProcLog
	// AvgTime is the paper's metric: the mean per-process write+close
	// time in seconds (§V-C).
	AvgTime float64
	// MinTime/MaxTime bound the per-process completion spread.
	MinTime, MaxTime float64
	// DiskStats aggregates the traced disks (node-local: node 0's disk;
	// shared: every server disk).
	DiskStats disk.Stats
	// Trace holds node 0's block trace when TraceNode0 is set.
	Trace []disk.Op
	// CRFSStats aggregates mount counters over all nodes (CRFS runs).
	CRFSStats simcrfs.Stats
}

// RunCheckpoint executes one coordinated checkpoint and returns its
// measurements. It is deterministic in Config (including Seed).
func RunCheckpoint(cfg Config) Result {
	res := Result{Config: cfg}
	img, err := cfg.Stack.ImageBytes(cfg.Class, cfg.Nodes*cfg.ProcsPerNode)
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	res.ImageBytes = img

	if cfg.Stack.CheckpointFails(string(cfg.Backend), cfg.Class, cfg.UseCRFS) {
		// Reproduce the paper's Fig. 8 hole: the run never completes.
		res.Failed = true
		return res
	}

	env := des.New()

	// Backing filesystems.
	nodeFS := make([]simio.FS, cfg.Nodes)
	var traced *disk.Disk
	switch cfg.Backend {
	case Ext3:
		for n := 0; n < cfg.Nodes; n++ {
			fs := ext3.New(env, fmt.Sprintf("node%d", n), cfg.Ext3Params)
			nodeFS[n] = fs
			if n == 0 {
				traced = fs.Disk()
			}
		}
	case NFS:
		server := nfs.NewServer(env, cfg.NFSParams)
		traced = server.Store().Disk()
		for n := 0; n < cfg.Nodes; n++ {
			nodeFS[n] = nfs.NewClient(env, fmt.Sprintf("node%d", n), server)
		}
	case Lustre:
		lfs := lustre.New(env, cfg.LustreParams)
		traced = lfs.OSSDisks()[0]
		for n := 0; n < cfg.Nodes; n++ {
			nodeFS[n] = lustre.NewClient(env, fmt.Sprintf("node%d", n), lfs)
		}
	default:
		panic(fmt.Sprintf("cluster: unknown backend %q", cfg.Backend))
	}
	if cfg.TraceNode0 && traced != nil {
		traced.Trace = func(op disk.Op) { res.Trace = append(res.Trace, op) }
	}

	// Optional CRFS mounts, one per node as in the paper's deployment.
	mounts := make([]*simcrfs.Mount, 0, cfg.Nodes)
	writerFS := nodeFS
	if cfg.UseCRFS {
		writerFS = make([]simio.FS, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			m := simcrfs.NewMount(env, fmt.Sprintf("crfs%d", n), nodeFS[n], cfg.CRFS)
			writerFS[n] = m
			mounts = append(mounts, m)
		}
	}

	// Coordinated checkpoint (§II-C): channels are assumed suspended;
	// every process dumps its image concurrently via BLCR, then all
	// meet at the barrier before resuming.
	nprocs := cfg.Nodes * cfg.ProcsPerNode
	logs := make([]*metrics.ProcLog, nprocs)
	barrier := des.NewWaitGroup(env)
	barrier.Add(nprocs)
	for n := 0; n < cfg.Nodes; n++ {
		for c := 0; c < cfg.ProcsPerNode; c++ {
			n, c := n, c
			rank := n*cfg.ProcsPerNode + c
			logs[rank] = &metrics.ProcLog{Node: n, Rank: rank}
			env.Spawn(fmt.Sprintf("rank%d", rank), func(p *des.Proc) {
				fs := writerFS[n]
				fs.AddDirtier()
				stream := blcr.Stream(img, cfg.Seed*7919+int64(rank))
				f := fs.Open(p, fmt.Sprintf("ckpt/rank%d.img", rank))
				blcr.Checkpoint(p, f, stream, logs[rank])
				fs.RemoveDirtier()
				barrier.Done()
				barrier.Wait(p) // all ranks resume together
			})
		}
	}
	env.Run()

	res.Logs = logs
	times := metrics.WriteTimes(logs)
	sum := metrics.Summarize(times)
	res.AvgTime, res.MinTime, res.MaxTime = sum.Mean, sum.Min, sum.Max
	for _, l := range logs {
		res.TotalBytes += l.TotalBytes()
	}
	switch cfg.Backend {
	case Ext3:
		res.DiskStats = nodeFS[0].(*ext3.FS).Disk().Stats()
	case NFS:
		res.DiskStats = traced.Stats()
	case Lustre:
		res.DiskStats = traced.Stats()
	}
	for _, m := range mounts {
		s := m.Stats()
		res.CRFSStats.Writes += s.Writes
		res.CRFSStats.BytesWritten += s.BytesWritten
		res.CRFSStats.FUSERequests += s.FUSERequests
		res.CRFSStats.ChunksFlushed += s.ChunksFlushed
		res.CRFSStats.BackendWrites += s.BackendWrites
		res.CRFSStats.PoolWaits += s.PoolWaits
	}
	env.Shutdown()
	return res
}
