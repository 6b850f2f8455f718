package vfs_test

import (
	"errors"
	"strings"
	"testing"

	"crfs/internal/memfs"
	"crfs/internal/vfs"
)

// TestTreePutRefusals: a Put whose body is not its declared size, or
// whose name is a temp, fails with ErrInvalid and leaves the store as it
// was: the previous object's bytes, and no temp.
func TestTreePutRefusals(t *testing.T) {
	m := memfs.New()
	tree := vfs.Tree{FS: m}
	if err := tree.Put("dir/f", strings.NewReader("old"), 3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what, name, body string
		size             int64
	}{
		{"short body", "dir/f", "new", 4},
		{"long body", "dir/f", "newer", 4},
		{"temp name", vfs.TempName("dir/f"), "new", 3},
	} {
		if err := tree.Put(tc.name, strings.NewReader(tc.body), tc.size); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("%s: Put = %v, want ErrInvalid", tc.what, err)
		}
		if got, err := vfs.ReadFile(m, "dir/f"); err != nil || string(got) != "old" {
			t.Errorf("%s: dir/f = %q (err %v), want the old bytes", tc.what, got, err)
		}
		if ents, err := m.ReadDir("dir"); err != nil || len(ents) != 1 {
			t.Errorf("%s: dir holds %v (err %v), want only f", tc.what, ents, err)
		}
	}
}
