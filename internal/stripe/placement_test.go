package stripe

import (
	"fmt"
	"reflect"
	"testing"
)

func nodeIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i)
	}
	return ids
}

func TestPlaceDeterministicAndOrderIndependent(t *testing.T) {
	nodes := nodeIDs(7)
	shuffled := []string{nodes[3], nodes[0], nodes[6], nodes[1], nodes[5], nodes[2], nodes[4]}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("ckpt-%d.s%08d", i%5, i)
		a := Place(nodes, key, 3)
		b := Place(shuffled, key, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Place(%q) depends on input order: %v vs %v", key, a, b)
		}
		if len(a) != 3 {
			t.Fatalf("Place(%q) returned %d nodes, want 3", key, len(a))
		}
		seen := map[string]bool{}
		for _, id := range a {
			if seen[id] {
				t.Fatalf("Place(%q) repeated node %s", key, id)
			}
			seen[id] = true
		}
	}
}

func TestPlaceEdgeCases(t *testing.T) {
	if got := Place(nil, "k", 2); got != nil {
		t.Fatalf("Place(nil) = %v", got)
	}
	if got := Place([]string{"a"}, "k", 0); got != nil {
		t.Fatalf("Place(k=0) = %v", got)
	}
	got := Place([]string{"b", "a"}, "k", 5)
	if len(got) != 2 {
		t.Fatalf("Place(k>N) = %v, want both nodes", got)
	}
}

// TestPlaceBalance: rendezvous hashing should spread primaries roughly
// evenly. With 8 nodes and 8000 keys, expect ~1000 primaries each;
// assert no node is off by more than 3x either way, which FNV-1a
// clears comfortably while still catching a broken mix.
func TestPlaceBalance(t *testing.T) {
	nodes := nodeIDs(8)
	counts := map[string]int{}
	const keys = 8000
	for i := 0; i < keys; i++ {
		p := Place(nodes, fmt.Sprintf("object-%d.s%08d", i/100, i%100), 2)
		counts[p[0]]++
	}
	want := keys / len(nodes)
	for id, c := range counts {
		if c < want/3 || c > want*3 {
			t.Errorf("node %s holds %d primaries, want ~%d", id, c, want)
		}
	}
	if len(counts) != len(nodes) {
		t.Errorf("only %d of %d nodes ever primary", len(counts), len(nodes))
	}
}

// TestPlaceSpreadsChunksOfOneObject pins a subtle hashing regression:
// chunk keys of one object differ only in trailing digits, and without
// an avalanche finalizer those changes never reached the high bits that
// decide the rendezvous comparison — every chunk of an object got the
// same primary and restores serialized onto one node.
func TestPlaceSpreadsChunksOfOneObject(t *testing.T) {
	nodes := nodeIDs(3)
	counts := map[string]int{}
	const chunks = 48
	for i := 0; i < chunks; i++ {
		counts[Place(nodes, fmt.Sprintf("one-object.ckpt.s%08d", i), 2)[0]]++
	}
	for _, id := range nodes {
		if counts[id] == 0 {
			t.Fatalf("node %s is primary for no chunk of the object: %v", id, counts)
		}
		if counts[id] > chunks*2/3 {
			t.Fatalf("node %s is primary for %d of %d chunks: %v", id, counts[id], chunks, counts)
		}
	}
}

// TestPlaceMinimalMovement: adding one node to N must relocate only
// about k/(N+1) of replica slots — the property that makes Join cheap.
func TestPlaceMinimalMovement(t *testing.T) {
	before := nodeIDs(8)
	after := append(nodeIDs(8), "node-99")
	const keys = 4000
	moved := 0
	total := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("m-%d.s%08d", i/64, i%64)
		a := Place(before, key, 2)
		b := Place(after, key, 2)
		for _, id := range b {
			total++
			if !contains(a, id) {
				moved++
			}
		}
	}
	// Expected moved fraction is ~1/(N+1) ≈ 11% of slots; fail above 20%.
	if frac := float64(moved) / float64(total); frac > 0.20 {
		t.Errorf("join moved %.1f%% of replica slots, want ~11%%", frac*100)
	}
	// And removal must not shuffle survivors: every slot that stays on a
	// surviving node keeps its assignment.
	without := append(nodeIDs(5)[:3], nodeIDs(8)[4:]...) // drop node-03
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("r-%d", i)
		a := Place(before, key, 2)
		b := Place(without, key, 2)
		for _, id := range a {
			if id != "node-03" && !contains(b, id) {
				t.Fatalf("removing node-03 evicted %s from key %q: %v -> %v", id, key, a, b)
			}
		}
	}
}
