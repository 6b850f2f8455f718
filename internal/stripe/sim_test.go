package stripe

import (
	"fmt"
	"testing"

	"crfs/internal/des"
	"crfs/internal/simnet"
)

// simRestore models a striped restore in virtual time: chunks of one
// checkpoint are placed over n benefactor nodes with the real Place
// function, and each chunk's transfer serializes on its primary node's
// link (GigE bandwidth, as in the paper's testbed). The virtual
// completion time is the restore makespan; no real bytes move and no
// wall-clock time passes, so the run is exact and deterministic.
func simRestore(nNodes, nChunks int, chunkSize int64) des.Time {
	env := des.New()
	links := make(map[string]*simnet.Link, nNodes)
	ids := make([]string, nNodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("bene-%02d", i)
		links[ids[i]] = simnet.NewLink(env, simnet.GigEBps, simnet.GigELatency)
	}
	for c := 0; c < nChunks; c++ {
		primary := Place(ids, fmt.Sprintf("sim.ckpt.s%08d", c), 1)[0]
		link := links[primary]
		env.Spawn(fmt.Sprintf("chunk-%d", c), func(p *des.Proc) {
			link.Transfer(p, chunkSize)
		})
	}
	return env.Run()
}

// TestSimStripedRestoreScales proves the striping policy on the
// virtual-time substrate before any TCP is involved: restore makespan
// over 3 nodes must be at least 2x shorter than over 1 node, and adding
// nodes must keep helping monotonically (within placement imbalance).
func TestSimStripedRestoreScales(t *testing.T) {
	const (
		nChunks   = 64
		chunkSize = int64(4 << 20)
	)
	t1 := simRestore(1, nChunks, chunkSize)
	t3 := simRestore(3, nChunks, chunkSize)
	t6 := simRestore(6, nChunks, chunkSize)
	t.Logf("virtual restore makespan: 1 node %.3fs, 3 nodes %.3fs, 6 nodes %.3fs",
		des.Seconds(t1), des.Seconds(t3), des.Seconds(t6))
	if t1 < des.Time(nChunks)*int64(chunkSize)/simnet.GigEBps*des.Second {
		t.Fatalf("single-node makespan %v implausibly fast", t1)
	}
	if float64(t1)/float64(t3) < 2.0 {
		t.Errorf("3-node speedup %.2fx, want >= 2x", float64(t1)/float64(t3))
	}
	if t6 >= t3 {
		t.Errorf("6 nodes (%v) not faster than 3 (%v)", t6, t3)
	}
}

// TestSimDeterministic: the simulation is exact — identical inputs give
// bit-identical virtual times across runs, so scaling regressions are
// reproducible.
func TestSimDeterministic(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		a := simRestore(n, 48, 2<<20)
		b := simRestore(n, 48, 2<<20)
		if a != b {
			t.Fatalf("simRestore(%d) not deterministic: %d vs %d", n, a, b)
		}
	}
}

// TestSimRebalanceMovesMinimalBytes quantifies the join protocol in
// virtual time: the bytes a new node must receive during rebalancing
// are about k/(N+1) of the store, not a full reshuffle.
func TestSimRebalanceMovesMinimalBytes(t *testing.T) {
	const (
		nChunks   = 512
		chunkSize = int64(1 << 20)
		k         = 2
	)
	before := make([]string, 6)
	for i := range before {
		before[i] = fmt.Sprintf("bene-%02d", i)
	}
	after := append(append([]string{}, before...), "bene-99")

	env := des.New()
	link := simnet.NewLink(env, simnet.GigEBps, simnet.GigELatency)
	var movedBytes int64
	for c := 0; c < nChunks; c++ {
		key := fmt.Sprintf("rb.ckpt.s%08d", c)
		old := Place(before, key, k)
		for _, id := range Place(after, key, k) {
			if !contains(old, id) {
				movedBytes += chunkSize
				env.Spawn(key, func(p *des.Proc) { link.Transfer(p, chunkSize) })
			}
		}
	}
	env.Run()
	total := int64(nChunks) * chunkSize * k
	frac := float64(movedBytes) / float64(total)
	t.Logf("rebalance moved %d of %d replica bytes (%.1f%%)", movedBytes, total, frac*100)
	if frac > 0.30 {
		t.Errorf("join moved %.1f%% of replica bytes, want ~%.0f%%", frac*100, 100.0/float64(len(after)))
	}
	if movedBytes == 0 {
		t.Error("join moved nothing; new node would stay empty")
	}
}
