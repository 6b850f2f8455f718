// Package stripe implements the multi-node checkpoint store: a
// coordinator that splits each checkpoint into fixed-size chunks,
// places every chunk on k of N crfsd benefactor nodes, and records the
// layout in a per-checkpoint manifest that is fully replicated to every
// node. It is the stdchk-style scale-out layer over protocol v2: PUTs
// and restores stripe across nodes in parallel, scrub verifies every
// replica against its manifest fingerprint and repairs bad copies from
// good ones. A store's membership is fixed when it is built; placement
// is by rendezvous hashing, so a store built over one node more or less
// places all but about k/N of the chunks where the old one did.
package stripe

import (
	"hash/fnv"
	"sort"
)

// Place returns the k nodes that should hold key, chosen from nodes by
// highest-random-weight (rendezvous) hashing: every (node, key) pair
// gets a deterministic pseudo-random score and the top k scores win.
// The choice is stable — independent of the order nodes are passed in —
// and minimal under membership change: adding or removing one node
// moves only the keys whose top-k set actually changes, about k/N of
// them, with no central ring state to rebalance.
//
// If k >= len(nodes), every node is chosen. The result is ordered by
// descending score, so result[0] is the key's stable primary.
func Place(nodes []string, key string, k int) []string {
	if len(nodes) == 0 || k <= 0 {
		return nil
	}
	type scored struct {
		id    string
		score uint64
	}
	s := make([]scored, 0, len(nodes))
	for _, id := range nodes {
		s = append(s, scored{id: id, score: hrwScore(id, key)})
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].score != s[j].score {
			return s[i].score > s[j].score
		}
		return s[i].id < s[j].id // total order even on score collisions
	})
	if k > len(s) {
		k = len(s)
	}
	out := make([]string, k)
	for i := range out {
		out[i] = s[i].id
	}
	return out
}

// hrwScore is the rendezvous weight of key on node: FNV-1a over
// node\x00key, pushed through a 64-bit avalanche finalizer. The
// finalizer matters: raw FNV-1a changes in the last few input bytes
// (chunk indices differ only in trailing digits) barely reach the high
// bits that decide the score comparison, which would pin every chunk of
// an object to the same primary and serialize restores. Placement only
// needs determinism and spread, not cryptographic strength.
func hrwScore(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return fmix64(h.Sum64())
}

// fmix64 is the MurmurHash3 finalizer: every input bit avalanches to
// every output bit.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
