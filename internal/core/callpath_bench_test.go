package core

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"crfs/internal/osfs"
	"crfs/internal/vfs"
)

// benchSmallCalls is the repository benchmark's ckpt-small-raw shape as a
// package benchmark, for profiles: two files of 64 MiB on one default
// mount (ReadAhead 8) over osfs, each written (phase "ckpt") or read back
// (phase "restore") by its own goroutine in 512 B calls. One iteration is
// one pass over both files; only the named phase is timed.
//
//	go test -run '^$' -bench SmallCalls/restore -benchtime 20x -cpuprofile cpu.prof ./internal/core
func benchSmallCalls(b *testing.B, phase string) {
	const (
		image = 64 << 20
		bs    = 512
		ranks = 2
	)
	dir := "/dev/shm"
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		dir = ""
	}
	dir, err := os.MkdirTemp(dir, "crfs-callpath-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	back, err := osfs.New(dir)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := Mount(back, Options{ReadAhead: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	bufs := make([][]byte, ranks)
	for r := range bufs {
		bufs[r] = make([]byte, image)
		for i := range bufs[r] {
			bufs[r][i] = byte(i*7 + r)
		}
	}
	pass := func(write bool) {
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				flag := vfs.ReadOnly
				if write {
					flag = vfs.WriteOnly | vfs.Create | vfs.Trunc
				}
				f, err := fs.Open(fmt.Sprintf("rank%d.img", r), flag)
				if err != nil {
					b.Error(err)
					return
				}
				img := bufs[r]
				for off := 0; off < image && err == nil; off += bs {
					if write {
						_, err = f.WriteAt(img[off:off+bs], int64(off))
					} else {
						_, err = f.ReadAt(img[off:off+bs], int64(off))
					}
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
	b.SetBytes(ranks * image)
	pass(true) // both phases start from files that exist, with warm chunks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(phase == "ckpt")
	}
}

func BenchmarkSmallCalls(b *testing.B) {
	b.Run("ckpt", func(b *testing.B) { benchSmallCalls(b, "ckpt") })
	b.Run("restore", func(b *testing.B) { benchSmallCalls(b, "restore") })
}
