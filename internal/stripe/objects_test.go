package stripe_test

import (
	"bytes"
	"errors"
	"io/fs"
	"reflect"
	"strconv"
	"testing"

	"crfs/internal/client"
	"crfs/internal/server"
	"crfs/internal/stripe"
	"crfs/internal/vfs"
)

// The front doors that carry trace contexts. internal/contract holds
// every front door to the store contract.
var (
	_ vfs.Traced = vfs.Tree{}
	_ vfs.Traced = (*client.Client)(nil)
	_ vfs.Traced = (*stripe.Store)(nil)
)

// TestFrontDoors runs puts, shorter overwrites, gets, listing and
// deletes through a client of one daemon, the door every stripe node
// dials. A missing name is fs.ErrNotExist, deleting it succeeds, and a
// manifest temp in the store never shows in List. The mount and stripe
// doors are rows of internal/contract.
func TestFrontDoors(t *testing.T) {
	sizes := []int{0, 1, server.DataChunk - 1, server.DataChunk + 1, 4<<20 + 3}
	body := func(size, version int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i*7 + version*31 + i>>12)
		}
		return b
	}
	t.Run("client", func(t *testing.T) {
		addr, mnt := osDaemon(t)
		objs, err := client.Dial(addr, client.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { objs.Close() })
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
			name := "ckpt/rank" + strconv.Itoa(i)
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
