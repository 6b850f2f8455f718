package server

import (
	"os"
	"testing"
)

// TestMain runs every test of the package against a poisoning free list:
// frame buffers are handed from stage to stage by ownership, and a stage
// that touched one after giving it up would read (or send, or commit)
// 0xDB bytes — which every content check in the package then catches,
// besides the race detector seeing the poisoning write.
func TestMain(m *testing.M) {
	poisonFrameBufs.Store(true)
	os.Exit(m.Run())
}
