// Restart: the paper's §V-F — CRFS does not change file layout, so a
// checkpoint written through CRFS restarts directly from the backing
// filesystem (no CRFS mount needed), and reading through CRFS adds no
// translation either.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	crfs "crfs"
)

func main() {
	dir, err := os.MkdirTemp("", "crfs-restart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- checkpoint phase: write the image through CRFS ---
	fs, err := crfs.MountDir(dir, crfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	image := make([]byte, 8<<20)
	for i := range image {
		image[i] = byte(i * 2654435761)
	}
	f, err := fs.Open("rank0.img", crfs.WriteOnly|crfs.Create)
	if err != nil {
		log.Fatal(err)
	}
	// BLCR-style: header + region writes.
	var off int64
	for off < int64(len(image)) {
		n := int64(12 << 10)
		if off+n > int64(len(image)) {
			n = int64(len(image)) - off
		}
		if _, err := f.WriteAt(image[off:off+n], off); err != nil {
			log.Fatal(err)
		}
		off += n
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint written through CRFS and drained")

	// --- restart phase 1: read directly from the backend, no CRFS ---
	direct, err := os.ReadFile(dir + "/rank0.img")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(direct, image) {
		log.Fatal("restart from backend: image corrupted")
	}
	fmt.Println("restart directly from backing filesystem: image intact (no CRFS mount needed)")

	// --- restart phase 2: read through a fresh CRFS mount ---
	fs2, err := crfs.MountDir(dir, crfs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer fs2.Unmount()
	got, err := crfs.ReadFile(fs2, "rank0.img")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, image) {
		log.Fatal("restart through CRFS: image corrupted")
	}
	st := fs2.Stats()
	fmt.Printf("restart through CRFS: image intact, reads=%d, backend writes=%d\n",
		st.Reads, st.BackendWrites)
}
