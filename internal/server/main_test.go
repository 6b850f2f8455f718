package server

import (
	"fmt"
	"os"
	"testing"
	"time"

	"crfs/internal/freelist"
)

// TestMain runs every test of the package against a poisoning free list:
// frame buffers are handed from stage to stage by ownership, and a stage
// that touched one after giving it up would read (or send, or commit)
// 0xDB bytes — which every content check in the package then catches,
// besides the race detector seeing the poisoning write. Afterwards every
// frame buffer must be back: a path that drops one skips that check.
func TestMain(m *testing.M) {
	freelist.SetPoison(true)
	code := m.Run()
	if n := heldAfterTeardown(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "%d frame buffers were never given back\n", n)
		code = 1
	}
	os.Exit(code)
}

// heldAfterTeardown is how many frame buffers are out once connections
// the tests closed have finished tearing down.
func heldAfterTeardown() int {
	deadline := time.Now().Add(5 * time.Second)
	for FrameBufs.Held() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return FrameBufs.Held()
}
