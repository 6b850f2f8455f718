package stripe_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"reflect"
	"testing"

	crfs "crfs"
	"crfs/internal/client"
	"crfs/internal/memfs"
	"crfs/internal/server"
	"crfs/internal/stripe"
	"crfs/internal/vfs"
)

// The front doors that carry trace contexts.
var (
	_ vfs.Traced = vfs.Tree{}
	_ vfs.Traced = (*client.Client)(nil)
	_ vfs.Traced = (*stripe.Store)(nil)
)

// mountNode is a stripe node over an in-process mount, no socket between.
type mountNode struct {
	vfs.Tree
	id string
}

func (n mountNode) ID() string   { return n.id }
func (n mountNode) Close() error { return nil }

// memMount mounts CRFS over a fresh memfs until the test ends.
func memMount(t *testing.T) *crfs.FS {
	t.Helper()
	fs, err := crfs.Mount(memfs.New(), crfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Unmount() })
	return fs
}

// TestFrontDoors runs the same puts, overwrites, gets, listing and
// deletes through every implementation of vfs.Objects: a mount, a
// client of one daemon, a stripe over three daemons and a stripe over
// three mounts. At each, a missing name is fs.ErrNotExist, deleting it
// succeeds, and a temp in the store never shows in List.
func TestFrontDoors(t *testing.T) {
	rows := []struct {
		name string
		// open returns the store and the mount a temp can be planted in.
		open func(t *testing.T) (vfs.Objects, *crfs.FS)
	}{
		{"mount", func(t *testing.T) (vfs.Objects, *crfs.FS) {
			fs := memMount(t)
			return vfs.Tree{FS: fs}, fs
		}},
		{"client", func(t *testing.T) (vfs.Objects, *crfs.FS) {
			addr, fs := osDaemon(t)
			c, err := client.Dial(addr, client.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c, fs
		}},
		{"stripe-daemons", func(t *testing.T) (vfs.Objects, *crfs.FS) {
			var addrs []string
			var first *crfs.FS
			for i := 0; i < 3; i++ {
				addr, fs := osDaemon(t)
				addrs = append(addrs, addr)
				if first == nil {
					first = fs
				}
			}
			s, _ := dialCluster(t, stripe.Config{}, addrs...)
			return s, first
		}},
		{"stripe-mounts", func(t *testing.T) (vfs.Objects, *crfs.FS) {
			var nodes []stripe.Node
			var first *crfs.FS
			for i := 0; i < 3; i++ {
				fs := memMount(t)
				nodes = append(nodes, mountNode{vfs.Tree{FS: fs}, fmt.Sprintf("m%d", i)})
				if first == nil {
					first = fs
				}
			}
			return stripe.New(stripe.Config{}, nodes...), first
		}},
	}
	sizes := []int{0, 1, server.DataChunk - 1, server.DataChunk + 1, 4<<20 + 3}
	body := func(size, version int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*7 + version*31 + i>>12)
		}
		return b
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			objs, mnt := row.open(t)
			// A whole object under a temp name, as a crashed Put leaves it.
			temp := vfs.TempName(stripe.ManifestName("ckpt/ghost"))
			if err := mnt.MkdirAll("ckpt"); err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(mnt, temp, body(100, 0)); err != nil {
				t.Fatal(err)
			}
			var want []string
			for i, size := range sizes {
				name := fmt.Sprintf("ckpt/rank%d", i)
				want = append(want, name)
				// The overwrite is shorter than what it replaces.
				for v, n := range []int{size + 100, size} {
					if err := objs.Put(name, bytes.NewReader(body(n, v)), int64(n)); err != nil {
						t.Fatalf("put %s (%d bytes, version %d): %v", name, n, v, err)
					}
				}
				var got bytes.Buffer
				if n, err := objs.Get(name, &got); err != nil || n != int64(size) || !bytes.Equal(got.Bytes(), body(size, 1)) {
					t.Fatalf("get %s: %d bytes, %v; want the %d-byte overwrite (identical %v)", name, n, err, size, bytes.Equal(got.Bytes(), body(size, 1)))
				}
			}
			if names, err := objs.List(); err != nil || !reflect.DeepEqual(names, want) {
				t.Fatalf("list = %q, %v; want %q", names, err, want)
			}
			if _, err := objs.Get("ckpt/missing", new(bytes.Buffer)); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("get of a missing name: %v, want fs.ErrNotExist", err)
			}
			if err := objs.Delete("ckpt/missing"); err != nil {
				t.Errorf("delete of a missing name: %v", err)
			}
			for _, name := range want {
				if err := objs.Delete(name); err != nil {
					t.Fatalf("delete %s: %v", name, err)
				}
				if _, err := objs.Get(name, new(bytes.Buffer)); !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("get of deleted %s: %v, want fs.ErrNotExist", name, err)
				}
			}
			if names, err := objs.List(); err != nil || len(names) != 0 {
				t.Errorf("list after deleting everything = %q, %v", names, err)
			}
		})
	}
}
