package client

import (
	"fmt"
	"os"
	"testing"
	"time"

	"crfs/internal/freelist"
	"crfs/internal/server"
)

// TestMain runs every test of the package against a poisoning free list:
// the PUT staging buffer, the control frames the demux reader hands to a
// request and the buffers a GET reads into are given back by whoever
// holds them last, and a holder that touched one after that would send
// or deliver 0xDB bytes, which the content checks then catch. The
// in-process daemons draw from the same list. Afterwards every frame
// buffer must be back: a path that drops one skips that check.
func TestMain(m *testing.M) {
	freelist.SetPoison(true)
	code := m.Run()
	if n := heldAfterTeardown(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "%d frame buffers were never given back\n", n)
		code = 1
	}
	os.Exit(code)
}

// heldAfterTeardown is how many frame buffers are out once sessions and
// connections the tests closed have finished tearing down.
func heldAfterTeardown() int {
	deadline := time.Now().Add(5 * time.Second)
	for server.FrameBufs.Held() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return server.FrameBufs.Held()
}
