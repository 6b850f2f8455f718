package core

import (
	"flag"
	"os"
	"testing"
)

// TestMain runs every test of the package against a poisoning buffer
// pool and decode free list: their buffers are shared by reference count
// between the write pipeline, read-ahead, the decode cache and the
// readers copying from them, and a
// holder that touched one after its last pin was dropped would read 0xDB
// bytes — which every content check in the package then catches, besides
// the race detector seeing the poisoning write. Benchmarks run unpoisoned:
// the fill would be most of what they measure.
func TestMain(m *testing.M) {
	flag.Parse()
	poisonChunks.Store(flag.Lookup("test.bench").Value.String() == "")
	os.Exit(m.Run())
}
